package serve

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/inject"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/versions"
)

// Executor maps job specs onto the harness entry points
// (core.Run, core.ConfigSweep, fuzzgen.RunCampaign). It counts real
// executions so tests can assert that a cache hit ran nothing.
type Executor struct {
	executions atomic.Int64
	// Tracer/Metrics are threaded into every harness run; per-job span
	// trees hang off a per-job root span. Recorder receives partition
	// fault-plane events (cuts, heals, invariant violations); nil
	// disables them.
	Tracer   *obs.Tracer
	Metrics  *obs.Registry
	Recorder *obs.Recorder
}

// Executions returns how many jobs actually ran (cache hits excluded).
func (e *Executor) Executions() int64 { return e.executions.Load() }

// Execute runs the spec under ctx and returns its result. Cancellation
// surfaces as ctx's error; the result of a cancelled job is discarded
// by the scheduler (partial reports are not cacheable).
func (e *Executor) Execute(ctx context.Context, spec JobSpec, onFailure func(core.Failure)) (*JobResult, error) {
	e.executions.Add(1)
	key, err := spec.CacheKey()
	if err != nil {
		return nil, err
	}
	res := &JobResult{Key: key, Kind: spec.Kind, Spec: spec, Conf: spec.Conf}
	switch spec.Kind {
	case KindCorpus:
		inputs, err := corpusInputs(spec.InputPrefix)
		if err != nil {
			return nil, err
		}
		run, err := core.Run(inputs, core.RunOptions{
			Context:   ctx,
			SparkConf: spec.Conf,
			Families:  spec.Families,
			Parallel:  spec.Parallel,
			Tracer:    e.Tracer,
			Metrics:   e.Metrics,
			OnFailure: onFailure,
		})
		if err != nil {
			return nil, err
		}
		rj := run.Report.JSON()
		res.Report = &rj
		res.Rendered = run.Report.Render()
		if spec.Shard {
			res.Merge = corpusMergeMeta(run.Report)
		}
	case KindSweep:
		inputs, err := corpusInputs(spec.InputPrefix)
		if err != nil {
			return nil, err
		}
		names, configs := sweepConfigs()
		cells, err := core.ConfigSweep(inputs, names, configs, core.RunOptions{
			Context:   ctx,
			Families:  spec.Families,
			Parallel:  spec.Parallel,
			Tracer:    e.Tracer,
			Metrics:   e.Metrics,
			OnFailure: onFailure,
		})
		if err != nil {
			return nil, err
		}
		res.Sweep = cells
		res.Rendered = core.RenderSweep(cells)
	case KindFuzz:
		camp, err := fuzzgen.RunCampaign(fuzzgen.Options{
			Context:   ctx,
			Seed:      spec.Seed,
			N:         spec.N,
			From:      spec.From,
			Confs:     spec.Confs,
			Parallel:  spec.Parallel,
			Tracer:    e.Tracer,
			Metrics:   e.Metrics,
			OnFailure: onFailure,
		})
		if err != nil {
			return nil, err
		}
		if camp.Cancelled {
			// The campaign flushed a partial result, but a serving
			// layer must never cache or return a non-reproducible
			// report for a content-addressed spec.
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, context.Canceled
		}
		res.Fuzz = fuzzJSON(camp)
		res.Rendered = camp.Render()
		if spec.Shard {
			res.Merge = fuzzMergeMeta(camp)
		}
	case KindSkew:
		inputs, err := corpusInputs(spec.InputPrefix)
		if err != nil {
			return nil, err
		}
		pairs, err := parsePairs(spec.Pairs)
		if err != nil {
			return nil, err
		}
		m, err := core.RunSkewMatrix(inputs, pairs, core.RunOptions{
			Context:   ctx,
			Families:  spec.Families,
			Parallel:  spec.Parallel,
			Tracer:    e.Tracer,
			Metrics:   e.Metrics,
			OnFailure: onFailure,
		})
		if err != nil {
			return nil, err
		}
		res.Skew = skewJSON(m)
		res.Rendered = m.Render()
	case KindPartition:
		pres, err := partition.Run(partition.Options{
			Context:   ctx,
			Seed:      spec.Seed,
			Scenarios: spec.Scenarios,
			Strategy:  partition.Strategy(spec.Strategy),
			Trials:    spec.Trials,
			HoldMs:    spec.HoldMs,
			Parallel:  spec.Parallel,
			Schedule:  spec.Schedule,
			Tracer:    e.Tracer,
			Metrics:   e.Metrics,
			Recorder:  e.Recorder,
			OnFinding: func(f partition.Finding) {
				if onFailure != nil {
					onFailure(core.PartitionFailure(f.Scenario, f.Signature, f.Detail))
				}
			},
		})
		if err != nil {
			return nil, err
		}
		res.Partition = pres
		res.Rendered = pres.Render()
	default:
		return nil, fmt.Errorf("serve: unknown job kind %q", spec.Kind)
	}
	res.ReportSHA = core.HashBytes([]byte(res.Rendered))
	return res, nil
}

// corpusInputs builds the Figure-6 corpus, optionally restricted by
// name prefix (the -inputs flag of crosstest, as a job parameter).
func corpusInputs(prefix string) ([]core.Input, error) {
	inputs, err := core.BuildCorpus()
	if err != nil {
		return nil, err
	}
	if prefix == "" {
		return inputs, nil
	}
	var filtered []core.Input
	for _, in := range inputs {
		if strings.HasPrefix(in.Name, prefix) {
			filtered = append(filtered, in)
		}
	}
	if len(filtered) == 0 {
		return nil, fmt.Errorf("serve: input prefix %q matches no corpus input", prefix)
	}
	return filtered, nil
}

// sweepConfigs assembles the sweep matrix exactly as crosstest -sweep
// does: the default configuration as baseline, then every distinct
// registry fix configuration.
func sweepConfigs() ([]string, map[string]map[string]string) {
	names := []string{"default"}
	configs := map[string]map[string]string{"default": nil}
	for _, d := range inject.Registry() {
		if len(d.FixConf) == 0 {
			continue
		}
		name := fmt.Sprintf("fix-%d", d.Number)
		if _, seen := configs[name]; seen {
			continue
		}
		names = append(names, name)
		configs[name] = d.FixConf
	}
	return names, configs
}

// parsePairs resolves the submitted pair specs (already validated at
// admission, but Execute re-validates: it must reject, never guess, if
// handed an unvalidated spec). Empty means the default matrix.
func parsePairs(specs []string) ([]versions.Pair, error) {
	if len(specs) == 0 {
		return versions.DefaultPairs(), nil
	}
	pairs := make([]versions.Pair, 0, len(specs))
	for _, spec := range specs {
		p, err := versions.ParsePair(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: bad version pair %q: %w", spec, err)
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

func skewJSON(m *core.SkewMatrix) *SkewJSON {
	out := &SkewJSON{}
	for _, cell := range m.Cells {
		out.Pairs = append(out.Pairs, cell.Pair.String())
		out.Cells = append(out.Cells, SkewCellJSON{
			Writer:         cell.Pair.Writer.String(),
			Reader:         cell.Pair.Reader.String(),
			Known:          cell.Known,
			SkewIDs:        cell.SkewIDs,
			SkewSignatures: cell.SkewSignatures,
			Failures:       cell.Failures,
			SkewFailures:   cell.SkewFailures,
		})
	}
	return out
}

// corpusMergeMeta captures, per failure cluster, the rank of its first
// failure — the coordinator's tiebreak for which shard's Example
// represents the merged cluster.
func corpusMergeMeta(r *core.Report) *MergeMeta {
	m := &MergeMeta{Ranks: map[string]string{}}
	for _, f := range r.Found {
		if len(f.Failures) > 0 {
			m.Ranks[f.Signature] = f.Failures[0].Rank
		}
	}
	return m
}

// fuzzMergeMeta captures each cluster's first-failure rank and the
// shard's minimized reproducers; the coordinator keeps the example and
// reproducer of the minimum-rank shard per signature.
func fuzzMergeMeta(camp *fuzzgen.Result) *MergeMeta {
	m := &MergeMeta{Ranks: map[string]string{}}
	for _, cl := range camp.Clusters {
		m.Ranks[cl.Signature] = cl.FirstRank
	}
	for _, r := range camp.Reproducers {
		m.Reproducers = append(m.Reproducers, *r)
	}
	return m
}

func fuzzJSON(camp *fuzzgen.Result) *FuzzJSON {
	out := &FuzzJSON{
		Seed:          camp.Opts.Seed,
		N:             camp.Opts.N,
		From:          camp.Opts.From,
		Confs:         camp.Opts.Confs,
		Executed:      camp.Executed,
		TableCases:    camp.TableCases,
		Failures:      camp.Failures,
		Clusters:      make([]ClusterJSON, 0, len(camp.Clusters)),
		KnownHit:      camp.KnownHit,
		NewSignatures: camp.NewSigs,
	}
	for _, cl := range camp.Clusters {
		out.Clusters = append(out.Clusters, ClusterJSON{
			Signature: cl.Signature,
			Known:     cl.Known,
			Count:     cl.Count,
			Example:   cl.Example,
		})
	}
	return out
}
