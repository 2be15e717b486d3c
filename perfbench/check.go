package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/sim"
)

// cellHash fingerprints one cell's result: its key, outcome, event count and
// the exact bits of its final centers. Equal hashes mean the cell ran the same
// execution.
func cellHash(key string, r engine.CellResult) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	put(uint64(r.Result.Outcome))
	put(uint64(r.Result.Events))
	for _, c := range r.Result.Final {
		put(math.Float64bits(c.X))
		put(math.Float64bits(c.Y))
	}
	if r.Err != nil {
		_, _ = h.Write([]byte(r.Err.Error()))
	}
	return h.Sum64()
}

// digest folds per-cell hashes, in cell order, into the workload digest.
func digest(hashes []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range hashes {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	return h.Sum64()
}

// cellFault reports why a cell failed on its own terms ("" when it did not):
// it could not run, it ended in the error outcome, or its final configuration
// is invalid (overlapping robots).
func cellFault(r engine.CellResult) string {
	switch {
	case r.Err != nil:
		return r.Err.Error()
	case r.Result.Outcome == sim.OutcomeError:
		return fmt.Sprintf("outcome error: %v", r.Result.Err)
	}
	if err := r.Result.Final.Validate(); err != nil {
		return "final configuration: " + err.Error()
	}
	return ""
}

// verdict accumulates the correctness check of a run: every cell of every
// pass is attempted once, and fails when it faults or when its hash differs
// from the reference execution of that cell.
type verdict struct {
	ref       []uint64 // reference hash per cell (the first pass)
	attempted int
	failed    int
	problems  []string
}

// check folds one result set into the verdict, comparing it with the
// reference (which the first result set becomes). what names the result set
// in problem reports.
func (v *verdict) check(what string, keys []string, results []engine.CellResult) {
	hashes := make([]uint64, len(results))
	for i, r := range results {
		hashes[i] = cellHash(keys[i], r)
	}
	if v.ref == nil {
		v.ref = hashes
	}
	for i, r := range results {
		v.attempted++
		fault := cellFault(r)
		if fault == "" && hashes[i] != v.ref[i] {
			fault = "result differs from the reference execution"
		}
		if fault != "" {
			v.failed++
			v.problem("%s: cell %d [%s]: %s", what, i, keys[i], fault)
		}
	}
}

// compare checks a result set that is not counted as attempted work (a
// reference or replay run) against the reference hashes.
func (v *verdict) compare(what string, keys []string, results []engine.CellResult) {
	for i, r := range results {
		if cellHash(keys[i], r) != v.ref[i] {
			v.failed++
			v.problem("%s: cell %d [%s]: result differs from the reference execution", what, i, keys[i])
		}
	}
}

// merge adds another verdict's counts and problems to v.
func (v *verdict) merge(o *verdict) {
	v.attempted += o.attempted
	v.failed += o.failed
	for _, p := range o.problems {
		v.problem("%s", p)
	}
}

func (v *verdict) problem(format string, args ...any) {
	const keep = 20 // enough to diagnose; the count is in failed
	if len(v.problems) < keep {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) ok() bool { return v.failed == 0 && v.attempted > 0 }

func (v *verdict) digest() uint64 { return digest(v.ref) }
