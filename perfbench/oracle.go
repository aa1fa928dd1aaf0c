package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"serretime"
)

// defaultSeed is the workload seed the committed golden digests were
// made with.
const defaultSeed = 1

// expect is a reference result: the SHA-256 of the retimed netlist and
// the ΔSER (percent) of the solve.
type expect struct {
	sha  [32]byte
	dser float64
}

//go:embed golden
var goldenFS embed.FS

// loadGolden reads golden/<workload>.txt: one "<index> <sha256> <ΔSER>"
// line per input of the default seed's stream.
func loadGolden(workload string) ([]expect, error) {
	b, err := goldenFS.ReadFile("golden/" + workload + ".txt")
	if err != nil {
		return nil, err
	}
	var out []expect
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("golden/%s.txt: bad line %q", workload, sc.Text())
		}
		i, err1 := strconv.Atoi(f[0])
		sum, err2 := hex.DecodeString(f[1])
		dser, err3 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil || err3 != nil || i != len(out) || len(sum) != sha256.Size {
			return nil, fmt.Errorf("golden/%s.txt: bad line %q", workload, sc.Text())
		}
		var e expect
		copy(e.sha[:], sum)
		e.dser = dser
		out = append(out, e)
	}
	return out, sc.Err()
}

// coldSolve is the reference solver: an in-process, from-scratch
// RetimeRobust of the netlist with the daemon's default options, with no
// HTTP, job store, cache or session state in the way. It is unseeded,
// like a default batch job; a session delta promises the same bytes.
func coldSolve(name string, bench []byte) (expect, error) {
	d, err := serretime.Parse(bytes.NewReader(bench), name)
	if err != nil {
		return expect{}, err
	}
	res, err := d.RetimeRobust(context.Background(), serviceOptions())
	if err != nil {
		return expect{}, err
	}
	var buf bytes.Buffer
	if err := res.Retimed.WriteBench(&buf); err != nil {
		return expect{}, err
	}
	return expect{sha: sha256.Sum256(buf.Bytes()), dser: res.DeltaSER()}, nil
}

// oracleWorkers solves references in parallel once the daemon has
// stopped.
const oracleWorkers = 2

// references returns the expected result of each listed input: from the
// golden digests while the default seed's stream covers it, otherwise
// from a cold solve (once per distinct reference netlist).
func references(ins []input, idx []int, golden []expect, seed int64) (map[int]expect, error) {
	out := make(map[int]expect, len(idx))
	byKey := map[string][]int{}
	var keys []string
	for _, i := range idx {
		if seed == defaultSeed && i < len(golden) {
			out[i] = golden[i]
			continue
		}
		k := ins[i].refKey
		if byKey[k] == nil {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan string)
	for w := 0; w < oracleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				in := ins[byKey[k][0]]
				e, err := coldSolve(in.name, in.ref)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference solve of %s: %w", k, err)
				}
				for _, i := range byKey[k] {
					out[i] = e
				}
				mu.Unlock()
			}
		}()
	}
	for _, k := range keys {
		next <- k
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

// writeGolden solves the first n inputs of the default seed's stream
// cold and writes their digests to dir/<workload>.txt.
func writeGolden(w *workload, n int, dir string) error {
	r := &run{w: w, seed: defaultSeed}
	if err := w.prepare(r); err != nil {
		return err
	}
	var err error
	ins := make([]input, n)
	idx := make([]int, n)
	for i := range ins {
		if ins[i], err = r.stream.get(i); err != nil {
			return err
		}
		idx[i] = i
	}
	refs, err := references(ins, idx, nil, 0)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %s, seed %d: <input index> <sha256 of the retimed netlist> <ΔSER %%>\n", w.name, defaultSeed)
	fmt.Fprintf(&buf, "# made by a cold in-process RetimeRobust per input: go run . -write-golden %d -workload %s\n", n, w.name)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, "%d %x %s\n", i, refs[i].sha, strconv.FormatFloat(refs[i].dser, 'g', -1, 64))
	}
	return os.WriteFile(filepath.Join(dir, w.name+".txt"), buf.Bytes(), 0o644)
}
