package lint

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
)

// Minimal SARIF 2.1.0 model — just the subset GitHub code scanning needs
// to annotate findings inline on pull requests.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// ToSARIF renders findings as a SARIF 2.1.0 log. ran is the rule set the
// run applied, listed in the log by ID; root makes file paths
// checkout-relative so CI annotation lands on the right files.
func ToSARIF(findings []Finding, ran []Rule, root string) ([]byte, error) {
	rules := []sarifRule{}
	for _, r := range ran {
		rules = append(rules, sarifRule{ID: r.ID, ShortDescription: sarifMessage{Text: r.Doc}})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := []sarifResult{}
	for _, f := range findings {
		uri := f.File
		if root != "" {
			if rel, err := filepath.Rel(root, f.File); err == nil && !strings.HasPrefix(rel, "..") {
				uri = filepath.ToSlash(rel)
			}
		}
		text := f.Msg
		if f.Hint != "" {
			text += " (" + f.Hint + ")"
		}
		results = append(results, sarifResult{
			RuleID:  f.Rule,
			Level:   "error",
			Message: sarifMessage{Text: text},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: uri},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "almalint", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(&log, "", "  ")
}
