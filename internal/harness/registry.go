package harness

import "fmt"

// experiments is the evaluation suite: one row per experiment, in the
// paper's presentation order, which is the CLI's run order. cmd/almanac
// runs and lists experiments only through this table (Names, Run), and
// TestDocsNameExperiments checks that every `go run ./cmd/almanac <name>`
// in the docs names a row of it.
var experiments = []struct {
	name string
	run  func(Config) (*Table, error)
}{
	{"fig6", Figure6},
	{"fig7", Figure7},
	{"fig8", Figure8},
	{"fig9a", Figure9IOZone},
	{"fig9b", Figure9OLTP},
	{"fig10", Figure10},
	{"fig11", Figure11},
	{"table3", Table3},
	{"ablation-compress", AblationCompression},
	{"ablation-group", AblationGroupSize},
	{"ablation-th", AblationThreshold},
	{"ablation-bound", AblationMinRetention},
	{"ablation-mapcache", AblationMapCache},
	{"ablation-wear", AblationWear},
	{"scaling", ArrayScaling},
	{"obs", ObsReport},
	{"crashsweep", CrashSweep},
	{"service", ServiceFleet},
	{"sweep", designSweep},
}

// Names returns the experiment identifiers in run order.
func Names() []string {
	out := make([]string, len(experiments))
	for i, e := range experiments {
		out[i] = e.name
	}
	return out
}

// Run executes one named experiment.
func Run(name string, c Config) (*Table, error) {
	for _, e := range experiments {
		if e.name == name {
			return e.run(c)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, Names())
}
