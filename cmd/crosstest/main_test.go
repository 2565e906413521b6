package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestMetricsExportArithmetic pins the acceptance criterion for the
// -metrics flag: the exported text parses as Prometheus and the
// per-oracle case counts partition the total case count.
func TestMetricsExportArithmetic(t *testing.T) {
	corpus, err := core.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	// A slice of the corpus keeps the test fast while exercising both
	// valid (wr-oracle) and invalid (eh-oracle) inputs.
	var inputs []core.Input
	for _, in := range corpus {
		if len(inputs) < 12 || !in.Valid && len(inputs) < 16 {
			inputs = append(inputs, in)
		}
	}
	reg := obs.NewRegistry()
	res, err := core.Run(inputs, core.RunOptions{Metrics: reg, Families: []string{"ss"}})
	if err != nil {
		t.Fatal(err)
	}

	// Exercise the same path the -metrics flag takes, then parse the
	// file back.
	dest := filepath.Join(t.TempDir(), "metrics.prom")
	if err := obs.WriteMetricsFile(reg, dest); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(dest)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := obs.ParsePrometheus(f)
	if err != nil {
		t.Fatalf("export is not valid Prometheus text: %v", err)
	}

	total := got["crosstest_cases_total"]
	if total != float64(len(res.Cases)) {
		t.Errorf("crosstest_cases_total = %v, want %d", total, len(res.Cases))
	}
	wr := got[`crosstest_oracle_cases_total{oracle="wr"}`]
	eh := got[`crosstest_oracle_cases_total{oracle="eh"}`]
	if wr+eh != total {
		t.Errorf("per-oracle case counts do not sum to total: wr=%v eh=%v total=%v", wr, eh, total)
	}
	if wr == 0 || eh == 0 {
		t.Errorf("expected both oracles exercised, got wr=%v eh=%v", wr, eh)
	}
}

// TestTraceExportWritesSpans pins that -trace produces a spans.jsonl
// with one line per recorded span.
func TestTraceExportWritesSpans(t *testing.T) {
	corpus, err := core.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(nil)
	if _, err := core.Run(corpus[:4], core.RunOptions{Tracer: tr, Families: []string{"ss"}}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	dir := t.TempDir()
	if err := obs.WriteSpansFile(tr, dir, "spans.jsonl"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != tr.Len() {
		t.Errorf("spans.jsonl has %d lines, want %d", lines, tr.Len())
	}
}
