package main

import (
	"strings"
	"testing"

	"dataflasks/internal/analysis"
)

// TestRepoInvariantsClean runs the whole suite over the module — the
// same run CI does — and fails on any finding. Reverting a ctx fix
// breaks this test, not just the lint step.
func TestRepoInvariantsClean(t *testing.T) {
	prog, err := analysis.LoadPackages(".", nil)
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	findings, err := analysis.Run(prog, All)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestSelectAnalyzersUnknownNamesAll: an unknown -checks name is an
// error that lists every analyzer in All, so the message cannot go
// stale when one is added or removed.
func TestSelectAnalyzersUnknownNamesAll(t *testing.T) {
	_, err := selectAnalyzers("nope")
	if err == nil {
		t.Fatal("selectAnalyzers(\"nope\") succeeded")
	}
	for _, a := range All {
		if !strings.Contains(err.Error(), a.Name) {
			t.Errorf("error %q does not name analyzer %s", err, a.Name)
		}
	}
}
