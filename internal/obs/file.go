package obs

import (
	"io"
	"os"
	"path/filepath"
)

// WriteSpansFile writes the tracer's spans as JSON lines to
// <dir>/<name>, creating dir if it does not exist.
func WriteSpansFile(tr *Tracer, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, name), tr.WriteSpans)
}

// WriteMetricsFile writes the registry in Prometheus text format to
// dest, or to standard output when dest is "-".
func WriteMetricsFile(reg *Registry, dest string) error {
	if dest == "-" {
		return reg.WritePrometheus(os.Stdout)
	}
	return writeFile(dest, reg.WritePrometheus)
}

// writeFile creates path and fills it through write. The Close error
// is returned on the success path: a failed flush on close means the
// file does not hold what was written.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
