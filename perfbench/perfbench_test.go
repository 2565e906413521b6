package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// tinyRun runs one workload at self-test size.
func tinyRun(t *testing.T, workload string, r *refs, traced bool) (map[string]float64, *tally, error) {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.5, tiny: true, trace: traced}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	tl := &tally{}
	m, err := workloads[workload](cfg, r, tr, tl)
	return m, tl, err
}

func mustRefs(t *testing.T) *refs {
	t.Helper()
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestTinyWorkloadsPass runs every workload at tiny size, untraced and
// traced: all checks pass, nothing fails, and every metric the workload
// reports is present.
func TestTinyWorkloadsPass(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, traced), func(t *testing.T) {
				m, tl, err := tinyRun(t, name, mustRefs(t), traced)
				if err != nil {
					t.Fatal(err)
				}
				if len(tl.checks) > 0 || tl.failed > 0 || tl.attempted == 0 {
					t.Fatalf("attempted %d failed %d checks %v", tl.attempted, tl.failed, tl.checks)
				}
				if traced {
					for _, k := range []string{"sqlparse.parse_us", "serde.encode_us", "hdfssim.list_us", "hdfssim.files", "trace.overhead_ratio"} {
						if m[k] <= 0 {
							t.Errorf("%s = %v, want > 0", k, m[k])
						}
					}
					return
				}
				for _, d := range endToEnd {
					if m[d.Name] <= 0 {
						t.Errorf("%s = %v, want > 0", d.Name, m[d.Name])
					}
				}
			})
		}
	}
}

// TestCorruptedReferenceFails proves each output check bites: with one
// reference digest corrupted, the matching workload reports the check
// by name, either from its set-up warm-up or from its measured loop.
func TestCorruptedReferenceFails(t *testing.T) {
	const bad = "0000000000000000000000000000000000000000000000000000000000000000"
	cases := []struct {
		workload, check string
		corrupt         func(r *refs)
	}{
		{"corpus", "corpus.report_sha256", func(r *refs) {
			ref := r.Corpus["tiny"]
			ref.Report = bad
			r.Corpus["tiny"] = ref
		}},
		{"skew", "skew.cell", func(r *refs) {
			for pair := range r.Skew["tiny"] {
				r.Skew["tiny"][pair] = bad
			}
		}},
		// Every cold job after the warm-up ones: set-up passes and the
		// open-loop phase reports the mismatches.
		{"crossd", "job.report_sha256", func(r *refs) {
			for i := crossdWarm; i < fuzzPool; i++ {
				label := jobLabel(fuzzSpec(uint64(fuzzSeedBase+i), fuzzN))
				ref := r.Jobs[label]
				ref.Report = bad
				r.Jobs[label] = ref
			}
		}},
		// Every campaign after the warm-up one: the merged result no
		// longer equals the recorded single-node body.
		{"cluster", "cluster.merged_equals_single_node", func(r *refs) {
			for i := 1; i < tinyClusterPool; i++ {
				label := jobLabel(fuzzSpec(uint64(tinyClusterSeedBase+i), tinyClusterN))
				ref := r.Jobs[label]
				ref.Body = bad
				r.Jobs[label] = ref
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			r := mustRefs(t)
			tc.corrupt(r)
			_, tl, err := tinyRun(t, tc.workload, r, false)
			var ce *checkError
			switch {
			case errors.As(err, &ce):
				if !strings.HasPrefix(ce.check, tc.check) {
					t.Fatalf("set-up failed check %q, want %q", ce.check, tc.check)
				}
			case err != nil:
				t.Fatalf("unexpected error: %v", err)
			default:
				if len(tl.checks) == 0 || tl.failed == 0 {
					t.Fatalf("no check failed (attempted %d, failed %d)", tl.attempted, tl.failed)
				}
				if !strings.Contains(tl.checks[0], "check "+tc.check) {
					t.Fatalf("failed check %q, want %q", tl.checks[0], tc.check)
				}
			}
		})
	}
}

func scheduleJSON(t *testing.T, seed uint64) string {
	t.Helper()
	fuzz, part := crossdCursors()
	data, err := json.Marshal(schedule(seed, 0, nominalRate, 240, fuzz, part))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestScheduleIsAFunctionOfTheSeed: the same seed gives a byte-identical
// arrival schedule and job mix, another seed a different one.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := scheduleJSON(t, 42), scheduleJSON(t, 42), scheduleJSON(t, 43)
	if a != b {
		t.Fatal("same seed produced different schedules")
	}
	if a == c {
		t.Fatal("different seeds produced the same schedule")
	}
	var arr []arrival
	if err := json.Unmarshal([]byte(a), &arr); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for i, x := range arr {
		kinds[x.Kind]++
		if i > 0 && x.At < arr[i-1].At {
			t.Fatal("arrivals out of order")
		}
		if x.Kind == kindResubmit && (x.Of < 0 || arr[x.Of].Kind != kindCold || arr[x.Of].Seed != x.Seed) {
			t.Fatalf("resubmission %d does not repeat a cold arrival", i)
		}
	}
	if kinds[kindPartition] != 12 || kinds[kindCold]+kinds[kindResubmit] != 228 {
		t.Fatalf("job mix %v, want 12 partition campaigns of 240", kinds)
	}
}

// TestMetricsMatchBenchmarkJSON keeps the reported metrics and
// BENCHMARK.json in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if fmt.Sprint(c.got) != fmt.Sprint(c.want) {
			t.Errorf("%s in BENCHMARK.json:\n%v\nreported:\n%v", c.name, c.got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
}
