package core

import (
	"fmt"
	"strings"

	"repro/internal/csi"
	"repro/internal/serde"
	"repro/internal/sqlval"
)

// Wide-table testing extends the single-column plans of Figure 6 with
// tables that carry one column per data type at once. Multi-column
// tables exercise the interplay the single-column corpus cannot: column
// resolution by position versus by name across every type
// simultaneously, which is where the positional-ORC and case-folding
// behaviours interact.

// WideColumn pairs a corpus input with its column in the wide table.
type WideColumn struct {
	Name  string
	Input Input
}

// BuildWideTable selects one valid, non-null input per distinct type
// from the corpus and lays them out as the columns of a single table.
// Column names are deliberately mixed-case.
func BuildWideTable(inputs []Input) []WideColumn {
	seen := map[string]bool{}
	var out []WideColumn
	for _, in := range inputs {
		if !in.Valid || in.Literal == "NULL" {
			continue
		}
		key := in.Type.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, WideColumn{
			Name:  fmt.Sprintf("Col%d%s", len(out), strings.ToUpper(in.Type.Kind.String()[:1])),
			Input: in,
		})
	}
	return out
}

// WideOutcome is one interface's view of a multi-column table.
type WideOutcome struct {
	ReadErr  error
	Row      sqlval.Row
	Columns  []serde.Column
	Warnings []string
}

// WideResult is a wide-table run's outcome.
type WideResult struct {
	Columns  []WideColumn
	Failures []Failure
	Report   *Report
}

// RunWide executes the wide-table cross-test: per plan and format, one
// table containing every type, written through the plan's write
// interface and read back through its read interface. The write-read
// oracle applies per column; the differential oracle compares each
// column's outcome across formats within a plan.
func RunWide(inputs []Input, opts RunOptions) (*WideResult, error) {
	d := NewDeployment()
	d.SetConf(opts.SparkConf)
	cols := BuildWideTable(inputs)
	plans := Plans()
	var failures []Failure

	// cells[plan][column] holds the column's pseudo case per format, in
	// Formats() order: the differential oracle's probe groups.
	cells := make([][][]*CaseResult, len(plans))
	for pi, plan := range plans {
		cells[pi] = make([][]*CaseResult, len(cols))
		for _, format := range Formats() {
			tc := &TableCase{Label: fmt.Sprintf("wide_%s_%s", plan.Name(), format), Columns: cols, Plan: plan, Format: format}
			for i, pseudo := range d.runTable(nil, tc) {
				cells[pi][i] = append(cells[pi][i], pseudo)

				// Per-column write-read oracle.
				switch {
				case pseudo.Write.Err != nil:
					failures = append(failures, Failure{
						Oracle: csi.OracleWriteRead, Case: pseudo,
						Signature: classifyError(pseudo.Write.Err),
						Detail:    fmt.Sprintf("wide write failed: %v", pseudo.Write.Err),
					})
				case pseudo.Read.Err != nil:
					failures = append(failures, Failure{
						Oracle: csi.OracleWriteRead, Case: pseudo,
						Signature: classifyError(pseudo.Read.Err),
						Detail:    fmt.Sprintf("wide read failed: %v", pseudo.Read.Err),
					})
				case pseudo.Read.HasRow && !pseudo.Read.Value.EqualData(pseudo.Input.Expected):
					failures = append(failures, Failure{
						Oracle: csi.OracleWriteRead, Case: pseudo,
						Signature: classifyValueDiff(pseudo.Input.Expected, pseudo.Read.Value),
						Detail: fmt.Sprintf("column %s: wrote %s, read %s",
							cols[i].Name, pseudo.Input.Expected, pseudo.Read.Value),
					})
				}
			}
		}
	}

	// Differential oracle across formats per (plan, column).
	for _, byColumn := range cells {
		for _, group := range byColumn {
			base := group[0]
			baseKey := outcomeKey(base)
			for _, peer := range group[1:] {
				peerKey := outcomeKey(peer)
				if peerKey == baseKey {
					continue
				}
				failures = append(failures, Failure{
					Oracle: csi.OracleDifferential, Case: base, Peer: peer,
					Signature: classifyDiffPair(base, peer),
					Detail: fmt.Sprintf("wide column inconsistent across formats: %s [%s] vs %s [%s]",
						base.Describe(), baseKey, peer.Describe(), peerKey),
				})
			}
		}
	}
	return &WideResult{Columns: cols, Failures: failures, Report: buildReport(failures)}, nil
}
