// Command seranalyze evaluates the soft error rate of a netlist (ISCAS89
// .bench, or BLIF when the file ends in .blif) per
// eq. (4) of Lu & Zhou (DATE 2013): signature-based observability with
// n-time-frame expansion (logic masking) combined with error-latching
// window analysis (timing masking) and a synthetic per-gate raw upset
// characterization.
//
// Usage:
//
//	seranalyze -in s27.bench [-phi 0] [-frames 15] [-words 4] [-seed 1]
//	seranalyze -trace traces.jsonl
//	seranalyze -tracedir data/traces [-top 10]
//
// With -phi 0 the combinational critical path is used as the clock period.
// Both trace modes read telemetry.TraceDoc documents: a file of one JSON
// document per line (serbench -trace, serretimed -trace) or a directory
// of one document per file (the serretimed data-dir's traces/). With
// -trace, each document is folded into a per-run phase/counter report
// instead of analyzing a netlist.
// With -tracedir, the documents are aggregated into a fleet report:
// queue-wait vs. solve-time percentiles, tier-fallback frequency, the
// cross-job phase-time breakdown, and the slowest jobs by trace ID.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"serretime"
	"serretime/internal/telemetry"
)

func main() {
	var (
		in       = flag.String("in", "", "input .bench netlist (required unless -trace)")
		phi      = flag.Float64("phi", 0, "clock period (0 = critical path)")
		frames   = flag.Int("frames", 15, "time-frame expansion depth n")
		words    = flag.Int("words", 4, "signature width in 64-bit words")
		seed     = flag.Int64("seed", 1, "simulation seed")
		top      = flag.Int("top", 0, "also list the top-N SER contributors")
		trace    = flag.String("trace", "", "print a phase/counter report per trace document (a file of one JSON document per line, or a traces/ dir)")
		tracedir = flag.String("tracedir", "", "aggregate trace documents (a serretimed traces/ dir or a file of one JSON document per line) into a fleet report")
	)
	flag.Parse()
	if *trace != "" {
		if err := traceReport(os.Stdout, *trace); err != nil {
			fatal(err)
		}
		return
	}
	if *tracedir != "" {
		if err := fleetReport(os.Stdout, *tracedir, *top); err != nil {
			fatal(err)
		}
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "seranalyze: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	d, err := serretime.Load(*in)
	if err != nil {
		fatal(err)
	}
	st, err := d.Stats()
	if err != nil {
		fatal(err)
	}
	an, err := d.Analyze(*phi, serretime.AnalysisOptions{
		Frames: *frames, SignatureWords: *words, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("circuit        %s\n", d.Name())
	fmt.Printf("inputs/outputs %d / %d\n", st.PIs, st.POs)
	fmt.Printf("gates          %d (depth %d)\n", st.Gates, st.Depth)
	fmt.Printf("flip-flops     %d\n", st.FFs)
	fmt.Printf("graph          |V|=%d |E|=%d\n", st.Vertices, st.Edges)
	fmt.Printf("clock period   %.4g\n", an.Phi)
	fmt.Printf("SER            %.4e\n", an.SER)
	fmt.Printf("  gate term    %.4e (%.1f%%)\n", an.GateSER, pct(an.GateSER, an.SER))
	fmt.Printf("  register term %.4e (%.1f%%)\n", an.RegisterSER, pct(an.RegisterSER, an.SER))
	fmt.Printf("register obs   %.4g over %d registers\n", an.RegisterObs, an.Registers)
	if *top > 0 {
		crit, err := d.CriticalElements(*phi, *top, serretime.AnalysisOptions{
			Frames: *frames, SignatureWords: *words, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ntop %d contributors:\n", len(crit))
		fmt.Printf("%-24s %-9s %10s %7s %7s %8s\n", "element", "kind", "SER", "share", "obs", "|ELW|")
		for _, c := range crit {
			fmt.Printf("%-24s %-9s %10.3e %6.1f%% %7.3f %8.3g\n",
				c.Name, c.Kind, c.SER, 100*c.Share, c.Obs, c.Window)
		}
	}
}

// traceReport prints one phase/counter report per trace document, in
// the documents' order, each folded from its span tree.
func traceReport(w io.Writer, path string) error {
	docs, skipped, err := loadTraceDocs(path)
	if err != nil {
		return err
	}
	if len(docs) == 0 {
		return fmt.Errorf("%s: no trace documents", path)
	}
	fmt.Fprintf(w, "trace %s: %d run(s)", path, len(docs))
	if skipped > 0 {
		fmt.Fprintf(w, ", %d undecodable document(s) skipped", skipped)
	}
	fmt.Fprint(w, "\n\n")
	for _, doc := range docs {
		name := doc.Name
		if name == "" {
			name = doc.TraceID
		}
		if err := doc.Stats().WriteReport(w, name); err != nil {
			return err
		}
	}
	return nil
}

// fleetReport aggregates telemetry.TraceDoc documents into a
// fleet-level report.
func fleetReport(w io.Writer, path string, top int) error {
	docs, skipped, err := loadTraceDocs(path)
	if err != nil {
		return err
	}
	if len(docs) == 0 {
		return fmt.Errorf("%s: no trace documents", path)
	}
	if skipped > 0 {
		fmt.Fprintf(w, "seranalyze: %d undecodable trace document(s) skipped\n", skipped)
	}
	telemetry.AggregateTraces(docs).WriteReport(w, top)
	return nil
}

// loadTraceDocs reads trace documents from a directory (one JSON doc
// per file, subdirectories ignored) or a file (one JSON doc per line).
func loadTraceDocs(path string) ([]*telemetry.TraceDoc, int, error) {
	var blobs [][]byte
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	if fi.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, 0, err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			b, err := os.ReadFile(filepath.Join(path, e.Name()))
			if err != nil {
				return nil, 0, err
			}
			blobs = append(blobs, b)
		}
	} else {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, 0, err
		}
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) > 0 {
				blobs = append(blobs, line)
			}
		}
	}
	var docs []*telemetry.TraceDoc
	skipped := 0
	for _, b := range blobs {
		doc, err := telemetry.DecodeTraceDoc(b)
		if err != nil {
			skipped++
			continue
		}
		docs = append(docs, doc)
	}
	return docs, skipped, nil
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seranalyze:", err)
	os.Exit(1)
}
