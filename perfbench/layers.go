package main

import (
	"fmt"
	"maps"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzgen"
	"repro/internal/hivesim"
	"repro/internal/serde"
	"repro/internal/sqlparse"
	"repro/internal/sqlval"
	"repro/internal/versions"
)

// The layer replay re-executes a workload's cases one by one through
// the public calls of each layer, timing every call from the
// benchmark's side: Deployment.Write/Read (or the engines' public
// SQL/DataFrame calls for multi-column fuzz tables), sqlparse.Parse on
// the statement texts the case executes, Metastore.CreateTable at the
// workload's table count, serde Encode/Decode of the case's schema and
// row, and FileSystem.List of the case's table directory. Nothing
// inside the program is instrumented.

// probe is one table case as the harness executes it.
type probe struct {
	table  string
	plan   core.Plan
	format string
	cols   []core.WideColumn
	// single marks a Figure-6 corpus case, written and read through
	// Deployment.Write/Read exactly as core.Run does.
	single bool
}

// batch is the probes one deployment executes: core.Run and every
// core.RunTables call stand up one deployment for their cases.
type batch struct {
	probes []probe
	pair   *versions.Pair
	conf   map[string]string
}

// corpusProbes enumerates inputs × plans × formats in core.Run's order
// and with its table names.
func corpusProbes(inputs []core.Input) []probe {
	var out []probe
	for _, in := range inputs {
		for _, plan := range core.Plans() {
			for _, format := range core.Formats() {
				out = append(out, probe{
					table:  fmt.Sprintf("t_%s_%s_%04d", plan.Name(), format, in.ID),
					plan:   plan,
					format: format,
					cols:   []core.WideColumn{{Name: core.ColumnName, Input: in}},
					single: true,
				})
			}
		}
	}
	return out
}

// fuzzBatches regenerates campaign cases [from, from+n) of seed, as
// fuzzgen.RunCampaign does, grouped into its per-configuration
// deployments. genUS receives the time of Generator.Case plus
// TableCases for every case.
func fuzzBatches(seed uint64, from, n int, genUS *[]float64) ([]batch, error) {
	g := fuzzgen.NewGenerator(seed, 6)
	pool := g.ConfPool()
	byConf := make([][]probe, len(pool))
	for i := from; i < from+n; i++ {
		start := time.Now()
		c := g.Case(i)
		tables, err := fuzzgen.TableCases(&c, i)
		*genUS = append(*genUS, us(time.Since(start)))
		if err != nil {
			return nil, err
		}
		ci := -1
		for j, conf := range pool {
			if maps.Equal(conf, c.Conf) {
				ci = j
				break
			}
		}
		if ci < 0 {
			return nil, fmt.Errorf("fuzz case %d: configuration outside the generator's pool", i)
		}
		for _, tc := range tables {
			byConf[ci] = append(byConf[ci], probe{table: tc.Label, plan: tc.Plan, format: tc.Format, cols: tc.Columns})
		}
	}
	var out []batch
	for ci, probes := range byConf {
		if len(probes) > 0 {
			out = append(out, batch{probes: probes, conf: pool[ci]})
		}
	}
	return out, nil
}

func (p probe) schemaRow() (serde.Schema, sqlval.Row) {
	var s serde.Schema
	row := make(sqlval.Row, len(p.cols))
	for i, c := range p.cols {
		s.Columns = append(s.Columns, serde.Column{Name: c.Name, Type: c.Input.Type})
		row[i] = c.Input.Value
	}
	return s, row
}

// createSQL, insertSQL and selectSQL are the statement texts the
// harness builds for a case (one column named core.ColumnName for a
// corpus case).
func (p probe) createSQL() string {
	defs := make([]string, len(p.cols))
	for i, c := range p.cols {
		defs[i] = fmt.Sprintf("%s %s", c.Name, c.Input.Type)
	}
	return fmt.Sprintf("CREATE TABLE %s (%s) STORED AS %s", p.table, strings.Join(defs, ", "), p.format)
}

func (p probe) insertSQL() string {
	lits := make([]string, len(p.cols))
	for i, c := range p.cols {
		lits[i] = c.Input.Literal
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", p.table, strings.Join(lits, ", "))
}

func selectSQL(table string) string { return "SELECT * FROM " + table }

// statements lists the SQL texts the case's write and read parse.
func (p probe) statements() []string {
	var out []string
	if p.plan.Write != core.DataFrame {
		out = append(out, p.createSQL(), p.insertSQL())
	}
	if p.plan.Read != core.DataFrame {
		out = append(out, selectSQL(p.table))
	}
	return out
}

func (p probe) write(d *core.Deployment) error {
	if p.single {
		return d.Write(p.plan.Write, p.table, p.format, p.cols[0].Input).Err
	}
	var err error
	switch p.plan.Write {
	case core.SparkSQL:
		if _, err = d.Spark.SQL(p.createSQL()); err == nil {
			_, err = d.Spark.SQL(p.insertSQL())
		}
	case core.HiveQL:
		if _, err = d.Hive.Execute(p.createSQL()); err == nil {
			_, err = d.Hive.Execute(p.insertSQL())
		}
	case core.DataFrame:
		schema, row := p.schemaRow()
		df, derr := d.Spark.CreateDataFrame(schema, []sqlval.Row{row})
		if derr != nil {
			return derr
		}
		err = df.SaveAsTable(p.table, p.format)
	}
	return err
}

func (p probe) read(d *core.Deployment) error {
	if p.single {
		return d.Read(p.plan.Read, p.table).Err
	}
	var err error
	switch p.plan.Read {
	case core.SparkSQL:
		_, err = d.ReadSpark.SQL(selectSQL(p.table))
	case core.HiveQL:
		_, err = d.ReadHive.Execute(selectSQL(p.table))
	case core.DataFrame:
		_, err = d.ReadSpark.Table(p.table)
	}
	return err
}

// layerStats accumulates replay measurements across batches.
type layerStats struct {
	parse, ddl, encode, decode, list []float64 // µs
	write, read, self                []float64 // µs
	fileBytes, files                 []float64
	fsWrites, fsReads, cases         int64
}

// replay executes one batch on a fresh deployment. Every case is
// written and read (so the file system reaches the workload's size);
// every every-th case is also taken apart into its layer calls.
func replay(b batch, every int, tr *tracer, iter int, ls *layerStats) error {
	d := core.NewDeployment()
	if b.pair != nil {
		var err error
		if d, err = core.NewSkewDeployment(*b.pair); err != nil {
			return err
		}
	}
	d.SetConf(b.conf)
	// The shadow metastore receives the same table creations as the
	// deployment's, so CreateTable is timed at the workload's table count.
	shadow := hivesim.NewMetastore()
	root, end := tr.begin(iter, 0, "replay")
	defer end()
	var sampled []string
	for i, p := range b.probes {
		caseID, caseEnd := tr.begin(iter, root, "case")
		var werr error
		w := tr.timed(iter, caseID, "core.write", func() { werr = p.write(d) })
		var r time.Duration
		if werr == nil {
			r = tr.timed(iter, caseID, "core.read", func() { _ = p.read(d) })
		}
		ls.write = append(ls.write, us(w))
		if werr == nil {
			ls.read = append(ls.read, us(r))
		}
		schema, row := p.schemaRow()
		if b.pair != nil {
			// The skew probes core.Run adds per case: the table re-read on
			// the writer stack, and a sibling table on the reader stack.
			in := p.cols[0].Input
			if werr == nil {
				tr.timed(iter, caseID, "core.read", func() { d.WriterReadSpan(nil, p.plan.Read, p.table) })
			}
			var rwErr error
			tr.timed(iter, caseID, "core.write", func() {
				rwErr = d.ReaderWriteSpan(nil, p.plan.Write, p.table+"_rw", p.format, in).Err
			})
			if rwErr == nil {
				tr.timed(iter, caseID, "core.read", func() { d.ReadSpan(nil, p.plan.Read, p.table+"_rw") })
			}
			_, _ = shadow.CreateTable(p.table+"_rw", schema.Columns, p.format, nil)
		}
		if i%every != 0 {
			_, _ = shadow.CreateTable(p.table, schema.Columns, p.format, nil)
			caseEnd()
			continue
		}
		sampled = append(sampled, p.table)
		var parse time.Duration
		for _, stmt := range p.statements() {
			dur := tr.timed(iter, caseID, "sqlparse.Parse", func() { _, _ = sqlparse.Parse(stmt) })
			ls.parse = append(ls.parse, us(dur))
			parse += dur
		}
		ddl := tr.timed(iter, caseID, "hivesim.Metastore.CreateTable", func() {
			_, _ = shadow.CreateTable(p.table, schema.Columns, p.format, nil)
		})
		ls.ddl = append(ls.ddl, us(ddl))
		format, err := serde.ByName(p.format)
		if err != nil {
			return err
		}
		var data []byte
		var encErr error
		enc := tr.timed(iter, caseID, "serde.Encode", func() { data, encErr = format.Encode(schema, nil, []sqlval.Row{row}) })
		var dec time.Duration
		if encErr == nil {
			dec = tr.timed(iter, caseID, "serde.Decode", func() { _, _ = format.Decode(data) })
			ls.encode = append(ls.encode, us(enc))
			ls.decode = append(ls.decode, us(dec))
			ls.fileBytes = append(ls.fileBytes, float64(len(data)))
		}
		list := tr.timed(iter, caseID, "hdfssim.FileSystem.List", func() { d.FS.List(tableDir(d, p.table)) })
		if werr == nil {
			// Engine self time, an estimate: the case's write and read
			// minus the layer calls measured for it in isolation.
			self := w + r - parse - ddl - enc - dec - list
			ls.self = append(ls.self, us(self))
		}
		caseEnd()
	}
	// The file system at its end-of-iteration size.
	ls.files = append(ls.files, float64(len(d.FS.List("/warehouse"))))
	for _, table := range sampled {
		dir := tableDir(d, table)
		dur := tr.timed(iter, root, "hdfssim.FileSystem.List", func() { d.FS.List(dir) })
		ls.list = append(ls.list, us(dur))
	}
	_, writes, reads := d.FS.Stats()
	ls.fsWrites += writes
	ls.fsReads += reads
	ls.cases += int64(len(b.probes))
	return nil
}

// tableDir is the table's warehouse directory (the metastore's
// location when the table exists).
func tableDir(d *core.Deployment, table string) string {
	if t, err := d.MS.GetTable(table); err == nil {
		return t.Location
	}
	return "/warehouse/" + strings.ToLower(table)
}

func (ls *layerStats) metrics() map[string]float64 {
	m := map[string]float64{
		"sqlparse.parse_us": median(ls.parse),
		"hivesim.ddl_us":    median(ls.ddl),
		"serde.encode_us":   median(ls.encode),
		"serde.decode_us":   median(ls.decode),
		"serde.file_bytes":  median(ls.fileBytes),
		"hdfssim.list_us":   median(ls.list),
		"hdfssim.files":     median(ls.files),
		"core.write_us":     median(ls.write),
		"core.read_us":      median(ls.read),
		"engine.self_us":    median(ls.self),
	}
	if ls.cases > 0 {
		m["hdfssim.writes_per_case"] = float64(ls.fsWrites) / float64(ls.cases)
		m["hdfssim.reads_per_case"] = float64(ls.fsReads) / float64(ls.cases)
	}
	return m
}
