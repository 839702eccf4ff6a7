package main

import (
	"bytes"
	"fmt"
	"go/format"
	"io"

	"choreo/internal/sweep"
)

// writeDigests prints this file's recordedDigests table for the sweep
// workloads at benchmark seeds 0..n-1: the digest of each seed's warm-up
// batch stream. Regenerate it only when the program's output changes on
// purpose.
func writeDigests(out io.Writer, n int) error {
	w := &bytes.Buffer{}
	fmt.Fprintf(w, "package main\n\n")
	fmt.Fprintf(w, "// recordedDigests holds, for the benchmark seeds shipped with it, the\n")
	fmt.Fprintf(w, "// SHA-256 of each sweep workload's warm-up batch stream (one JSON line\n")
	fmt.Fprintf(w, "// per scenario, in expansion order). A run on one of these seeds must\n")
	fmt.Fprintf(w, "// reproduce its digest exactly. Written by perfbench -record-digests.\n")
	fmt.Fprintf(w, "var recordedDigests = map[string]map[int64]string{\n")
	for _, wl := range []struct {
		name string
		grid gridFunc
	}{{"snapshot-sweep", snapshotGrid}, {"sequence-sweep", sequenceGrid}} {
		fmt.Fprintf(w, "\t%q: {\n", wl.name)
		for seed := int64(0); seed < int64(n); seed++ {
			b, err := expandAndRun(wl.grid, seed, 0, sweep.RunOptions{})
			if err != nil {
				return err
			}
			digest, bad := checkStream(b.scs, b.results)
			if bad > 0 {
				return fmt.Errorf("%s seed %d: %d scenarios wrong", wl.name, seed, bad)
			}
			fmt.Fprintf(w, "\t\t%d: %q,\n", seed, digest)
		}
		fmt.Fprintf(w, "\t},\n")
	}
	fmt.Fprintf(w, "}\n")
	src, err := format.Source(w.Bytes())
	if err != nil {
		return err
	}
	_, err = out.Write(src)
	return err
}
