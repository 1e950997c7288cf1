package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary, recorded from the
// benchmark's own files around the call into the layer (spans inside the
// program are a later issue). Times are ns since the tracer started.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Req     uint64 `json:"req"`    // spans of one request share it
}

// tracer keeps spans in memory until the run ends. A nil *tracer means
// tracing is off: callers guard with `if tr != nil`, so the untraced
// timed loops pay one predictable branch.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req uint64) int {
	t.spans = append(t.spans, span{Name: name, StartNS: time.Since(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].EndNS = time.Since(t.t0).Nanoseconds() }

// p50us returns the median duration, in µs, of the spans called name
// under parent.
func (t *tracer) p50us(name string, parent int) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent == parent {
			d = append(d, float64(s.EndNS-s.StartNS)/1e3)
		}
	}
	sort.Float64s(d)
	v, _ := percentile(d, 0.5)
	return v
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		_ = f.Close() // the encode error is the one worth reporting
		return err
	}
	return f.Close()
}
