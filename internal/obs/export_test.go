package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// TestPrometheusLabelEscaping: label values containing quotes,
// backslashes, and newlines must round-trip through the text
// exposition — the exporter escapes them, the parser validates and
// preserves the escaped spelling.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("errors_total", "detail", `read "foo" failed`).Inc()
	r.Counter("errors_total", "detail", `path C:\tmp\x`).Add(2)
	r.Counter("errors_total", "detail", "line1\nline2").Add(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if strings.Count(text, "\n") != 4 { // 1 TYPE line + 3 samples
		t.Fatalf("escaped newline leaked into the exposition:\n%s", text)
	}
	got, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("escaped exposition did not parse: %v\n%s", err, text)
	}
	want := map[string]float64{
		`errors_total{detail="read \"foo\" failed"}`: 1,
		`errors_total{detail="path C:\\tmp\\x"}`:     2,
		`errors_total{detail="line1\nline2"}`:        3,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v (parsed %v)", k, got[k], v, got)
		}
	}
}

// TestHistogramExactEdgeValues: observations exactly on a bucket bound
// are inclusive (`le` semantics), negatives land in the first bucket,
// and values beyond the last bound land only in +Inf.
func TestHistogramExactEdgeValues(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge_ms", []float64{0, 1, 10})
	for _, v := range []float64{-5, 0, 0, 1, 10, 10.0000001, math.MaxFloat64} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`edge_ms_bucket{le="0"}`:    3, // -5, 0, 0
		`edge_ms_bucket{le="1"}`:    4, // + exactly 1
		`edge_ms_bucket{le="10"}`:   5, // + exactly 10
		`edge_ms_bucket{le="+Inf"}`: 7,
		`edge_ms_count`:             7,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// TestEmptyRegistryExportRoundTrip: a registry with no series exports
// cleanly in both formats, and both exports parse back to emptiness.
func TestEmptyRegistryExportRoundTrip(t *testing.T) {
	r := NewRegistry()
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if prom.Len() != 0 {
		t.Errorf("empty registry wrote %q", prom.String())
	}
	got, err := ParsePrometheus(&prom)
	if err != nil {
		t.Fatalf("empty exposition did not parse: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("parsed %v from empty exposition", got)
	}
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var rows []metricJSON
	if err := json.Unmarshal(js.Bytes(), &rows); err != nil {
		t.Fatalf("empty JSON export invalid: %v\n%s", err, js.String())
	}
	if len(rows) != 0 {
		t.Errorf("empty registry exported %d rows", len(rows))
	}
}

// TestHistogramExemplars: an exemplar-carrying observation lands in
// the right bucket, is exported in the OpenMetrics suffix syntax, and
// ParsePrometheus still reads the samples underneath.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage_ms", []float64{1, 10}, "stage", "run")
	h.ObserveExemplar(0.5, "0000002a")
	h.ObserveExemplar(7, "0000002b")
	h.Observe(5) // exemplar-free: must not disturb bucket 10's exemplar
	h.ObserveExemplar(99, "0000002c")

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`stage_ms_bucket{stage="run",le="1"} 1 # {trace_id="0000002a"} 0.5`,
		`stage_ms_bucket{stage="run",le="10"} 3 # {trace_id="0000002b"} 7`,
		`stage_ms_bucket{stage="run",le="+Inf"} 4 # {trace_id="0000002c"} 99`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	got, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exemplar exposition did not parse: %v\n%s", err, text)
	}
	if got[`stage_ms_bucket{stage="run",le="10"}`] != 3 || got[`stage_ms_count{stage="run"}`] != 4 {
		t.Errorf("parsed samples wrong: %v", got)
	}

	// Later exemplars replace earlier ones in the same bucket.
	h.ObserveExemplar(0.25, "0000002d")
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# {trace_id="0000002d"} 0.25`) {
		t.Errorf("exemplar not replaced:\n%s", buf.String())
	}

	// JSON export carries the exemplars keyed by bucket bound.
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var rows []metricJSON
	if err := json.Unmarshal(js.Bytes(), &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Exemplars["+Inf"].TraceID != "0000002c" || rows[0].Exemplars["1"].TraceID != "0000002d" {
		t.Errorf("JSON exemplars = %+v", rows[0].Exemplars)
	}
}

// TestExemplarFreeHistogramUnchanged: a histogram that never sees an
// exemplar exports byte-identically to the pre-exemplar format.
func TestExemplarFreeHistogramUnchanged(t *testing.T) {
	r := NewRegistry()
	r.Histogram("plain_ms", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "#  ") || strings.Contains(buf.String(), "} # ") || strings.Contains(buf.String(), "trace_id") {
		t.Errorf("exemplar syntax leaked into exemplar-free export:\n%s", buf.String())
	}
	want := "# TYPE plain_ms histogram\nplain_ms_bucket{le=\"1\"} 1\nplain_ms_bucket{le=\"+Inf\"} 1\nplain_ms_sum 0.5\nplain_ms_count 1\n"
	if buf.String() != want {
		t.Errorf("export changed shape:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestStripExemplar covers the quote-awareness of the parser's
// exemplar stripping: a " # " inside a quoted label value is data.
func TestStripExemplar(t *testing.T) {
	for in, want := range map[string]string{
		`m_bucket{le="1"} 3 # {trace_id="ab"} 0.5`: `m_bucket{le="1"} 3`,
		`m{k="a # b"} 2`: `m{k="a # b"} 2`,
		`m 1`:            `m 1`,
	} {
		if got := stripExemplar(in); got != want {
			t.Errorf("stripExemplar(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWriteMetricsFileMissingDir: the -metrics destination of every
// CLI goes through WriteMetricsFile, which must report an unwritable
// path instead of exiting successfully with nothing written.
func TestWriteMetricsFileMissingDir(t *testing.T) {
	r := NewRegistry()
	r.Counter("runs_total").Inc()
	dest := filepath.Join(t.TempDir(), "missing", "metrics.prom")
	if err := WriteMetricsFile(r, dest); err == nil {
		t.Fatalf("WriteMetricsFile(%s) succeeded into a missing directory", dest)
	}
}
