// Command nslint runs the repo's static-analysis suite (internal/lint):
// determinism, arenapair, connio, budgetflow, lockhold, seqsafe,
// errwrap, and the interprocedural ownership, refbalance, lockorder, and
// goleak analyzers, over the whole loaded program at once.
//
//	go run ./cmd/nslint ./...            # whole tree, all analyzers
//	go run ./cmd/nslint -only connio ./internal/media
//	go run ./cmd/nslint -sarif out.sarif ./...
//	go run ./cmd/nslint -list
//
// Exit status: 0 clean, 1 findings (or more than maxSuppressions
// //nslint:disable directives), 2 on usage or load errors.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/neuroscaler/neuroscaler/internal/lint"
)

// maxSuppressions caps the //nslint:disable directives in the loaded
// packages: the tree holds one (budgetflow, internal/flight), and a new
// finding is fixed rather than suppressed.
const maxSuppressions = 1

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "print the analyzers and exit")
	sarifOut := flag.String("sarif", "", "also write findings to this file as SARIF 2.1.0")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: nslint [-only a,b] [-sarif file] [-list] [packages]")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nslint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nslint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, analyzers)
	if *sarifOut != "" {
		if err := saveSARIF(*sarifOut, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "nslint:", err)
			os.Exit(2)
		}
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	failed := len(diags) > 0
	if failed {
		fmt.Fprintf(os.Stderr, "nslint: %d finding(s)\n", len(diags))
	}
	if n := lint.Suppressions(pkgs); n > maxSuppressions {
		fmt.Fprintf(os.Stderr, "nslint: %d //nslint:disable suppressions, more than the %d allowed; fix the findings instead\n", n, maxSuppressions)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// relPath normalizes a finding's filename to a cwd-relative path so
// reports are stable across checkouts.
func relPath(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(name)
}

// saveSARIF writes findings in SARIF 2.1.0, the interchange format CI
// code-scanning UIs ingest. One run, one rule per analyzer, one result
// per finding.
func saveSARIF(path string, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	type sarifMsg struct {
		Text string `json:"text"`
	}
	type sarifRule struct {
		ID               string   `json:"id"`
		ShortDescription sarifMsg `json:"shortDescription"`
	}
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
	}
	type sarifLocation struct {
		PhysicalLocation struct {
			ArtifactLocation struct {
				URI string `json:"uri"`
			} `json:"artifactLocation"`
			Region sarifRegion `json:"region"`
		} `json:"physicalLocation"`
	}
	type sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMsg        `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMsg{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{ID: "nslint", ShortDescription: sarifMsg{Text: "nslint driver diagnostics (malformed or stale suppressions)"}})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		var loc sarifLocation
		loc.PhysicalLocation.ArtifactLocation.URI = relPath(d.Pos.Filename)
		loc.PhysicalLocation.Region = sarifRegion{StartLine: max(d.Pos.Line, 1), StartColumn: d.Pos.Column}
		results = append(results, sarifResult{
			RuleID:    d.Analyzer,
			Level:     "error",
			Message:   sarifMsg{Text: d.Message},
			Locations: []sarifLocation{loc},
		})
	}
	doc := map[string]any{
		"$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		"version": "2.1.0",
		"runs": []map[string]any{{
			"tool": map[string]any{
				"driver": map[string]any{
					"name":           "nslint",
					"informationUri": "https://github.com/neuroscaler/neuroscaler",
					"rules":          rules,
				},
			},
			"results": results,
		}},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "\t")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}
