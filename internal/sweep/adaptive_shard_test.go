package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/workload"
)

// adaptiveShardCells: six cell groups with two initial replicas each — enough
// groups that a two-worker fleet genuinely splits the work.
func adaptiveShardCells() []engine.Cell {
	return engine.Batch{
		Workloads: []workload.Kind{workload.KindClustered, workload.KindRing},
		Ns:        []int{3, 4, 5},
		Seeds:     2,
		MaxEvents: 300,
	}.Cells()
}

// tightAdaptive is an adaptive config that forces every group to grow beyond
// its initial replicas (an unreachable target with a small cap), so the
// cross-worker trajectory really exercises the extra-replica protocol.
func tightAdaptive() Adaptive {
	return Adaptive{TargetCI: 1e-12, MaxSeeds: 4}
}

func sameAdaptiveRun(t *testing.T, label string, gotRes, wantRes []engine.CellResult, gotInfos, wantInfos []GroupSeeds) {
	t.Helper()
	if len(gotRes) != len(wantRes) {
		t.Fatalf("%s: %d results, want %d", label, len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		if gotRes[i].Index != i {
			t.Fatalf("%s: result %d has index %d", label, i, gotRes[i].Index)
		}
		if gotRes[i].Cell.Key() != wantRes[i].Cell.Key() {
			t.Fatalf("%s: result %d is cell %s, want %s (trajectory order diverged)",
				label, i, gotRes[i].Cell.Key(), wantRes[i].Cell.Key())
		}
		sameResult(t, fmt.Sprintf("%s result %d", label, i), gotRes[i], wantRes[i])
	}
	if !reflect.DeepEqual(gotInfos, wantInfos) {
		t.Fatalf("%s: group seed schedules diverged:\n%+v\nvs\n%+v", label, gotInfos, wantInfos)
	}
}

// TestRunAdaptiveShardedTwoConcurrentWorkers is the acceptance test for the
// cross-worker adaptive protocol: two workers drain one adaptive sweep
// concurrently through leases and the shared store, and each returns the
// complete result set — same cells, same per-group seed counts, bit-identical
// results, in the exact order the single-process scheduler produces — while
// no seed replica is executed twice fleet-wide.
func TestRunAdaptiveShardedTwoConcurrentWorkers(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()
	wantRes, wantInfos, _ := RunAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	const workers = 2
	outs := make([][]engine.CellResult, workers)
	infos := make([][]GroupSeeds, workers)
	stats := make([]ShardStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := OpenShared(dir)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			defer st.Close()
			outs[w], infos[w], stats[w] = RunAdaptiveSharded(cells, Options{Store: st},
				ad, fastShard(fmt.Sprintf("w%d", w)))
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	executed := 0
	for w := 0; w < workers; w++ {
		sameAdaptiveRun(t, fmt.Sprintf("worker %d", w), outs[w], wantRes, infos[w], wantInfos)
		executed += stats[w].Executed
	}
	// No duplicated seeds: the fleet executed each replica of the adaptive
	// trajectory exactly once, and the store holds each record exactly once.
	if executed != len(wantRes) {
		t.Fatalf("fleet executed %d replicas, want exactly %d", executed, len(wantRes))
	}
	data, err := os.ReadFile(filepath.Join(dir, resultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != len(wantRes) {
		t.Fatalf("store holds %d records, want %d", got, len(wantRes))
	}
	// Every group's adaptive-state record was published and closed.
	pub := newAdaptivePublisher(dir, "check")
	for _, info := range wantInfos {
		st, ok := pub.read(info.Key, engine.Version)
		if !ok {
			t.Fatalf("group %s: adaptive-state record missing or unreadable", info.Key)
		}
		if !st.Closed || st.Seeds != info.Seeds {
			t.Fatalf("group %s: state record %+v, want closed with %d seeds", info.Key, st, info.Seeds)
		}
	}
	// All leases released.
	entries, err := os.ReadDir(filepath.Join(dir, leasesDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("%d lease files left behind", len(entries))
	}
}

// TestRunAdaptiveShardedKillMidAdaptive simulates a worker killed in the
// middle of an adaptive sweep: the store holds a prefix of the trajectory, an
// expired lease guards an unfinished group, and the dead worker's open
// adaptive-state record is still published. A surviving worker must reclaim
// the lease, re-evaluate the CI against the merged history, finish the
// remaining seed blocks and produce results identical to an uninterrupted
// single-process adaptive run.
func TestRunAdaptiveShardedKillMidAdaptive(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()
	wantRes, wantInfos, _ := RunAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The dead worker checkpointed roughly the first half of the trajectory
	// (a prefix in canonical order: whole rounds land before later rounds).
	k := len(wantRes) / 2
	for i := 0; i < k; i++ {
		if err := st.Append(wantRes[i].Cell.Key(), wantRes[i]); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	// ...died holding the lease on the last cell's group, with an open
	// (non-closed) state record published for it.
	victim := cells[len(cells)-1]
	writeStaleLease(t, dir, victim, "dead-worker")
	deadPub := newAdaptivePublisher(dir, "dead-worker")
	if err := deadPub.publish(adaptiveState{
		Version: AdaptiveStateVersion, Engine: engine.Version,
		Group: groupKeyOf(victim), Seeds: 2, HalfWidth: 12345, Closed: false,
	}); err != nil {
		t.Fatal(err)
	}

	re, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, infos, stats := RunAdaptiveSharded(cells, Options{Store: re}, ad, fastShard("survivor"))
	if stats.LeasesReclaimed != 1 {
		t.Fatalf("LeasesReclaimed = %d, want 1", stats.LeasesReclaimed)
	}
	if stats.Executed != len(wantRes)-k {
		t.Fatalf("Executed = %d, want %d (the dead worker's unfinished replicas)", stats.Executed, len(wantRes)-k)
	}
	if stats.Restored != k {
		t.Fatalf("Restored = %d, want %d", stats.Restored, k)
	}
	sameAdaptiveRun(t, "survivor", res, wantRes, infos, wantInfos)
	// The survivor's closed state record replaced the dead worker's open one.
	got, ok := newAdaptivePublisher(dir, "check").read(groupKeyOf(victim), engine.Version)
	if !ok || !got.Closed {
		t.Fatalf("victim group state record not closed after recovery: %+v (ok=%v)", got, ok)
	}
}

// TestRunAdaptiveShardedResumesStoreWithoutStateRecords is the regression
// test for old stores: a sweep directory written by the single-process
// adaptive scheduler (no adaptive/ directory, no leases) must resume cleanly
// under the sharded runner — the full trajectory is recomputed from the
// result records alone, nothing re-runs, and the output is identical.
func TestRunAdaptiveShardedResumesStoreWithoutStateRecords(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()

	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, wantInfos, _ := RunAdaptive(cells, Options{Store: st}, ad)
	st.Close()
	if _, err := os.Stat(filepath.Join(dir, adaptiveDir)); !os.IsNotExist(err) {
		t.Fatalf("single-process adaptive run published state records (err=%v); the old-store regression test needs a store without them", err)
	}

	re, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res, infos, stats := RunAdaptiveSharded(cells, Options{Store: re}, ad, fastShard("late-joiner"))
	if stats.Executed != 0 {
		t.Fatalf("resuming an old adaptive store executed %d replicas, want 0", stats.Executed)
	}
	if stats.Restored != len(wantRes) {
		t.Fatalf("Restored = %d, want %d", stats.Restored, len(wantRes))
	}
	sameAdaptiveRun(t, "late joiner", res, wantRes, infos, wantInfos)
}

// TestAdaptiveStatePublisherRoundTrip pins the record format: publish, read
// back (including the +Inf half-width of an all-failed group), reject torn
// and version-mismatched records.
func TestAdaptiveStatePublisherRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pub := newAdaptivePublisher(dir, "w1")
	st := adaptiveState{
		Version: AdaptiveStateVersion, Engine: engine.Version,
		Group: "g1", Seeds: 7, HalfWidth: 123.25, Closed: true,
	}
	if err := pub.publish(st); err != nil {
		t.Fatal(err)
	}
	got, ok := pub.read("g1", engine.Version)
	if !ok {
		t.Fatal("published record not readable")
	}
	if got.Seeds != 7 || !got.Closed || got.HalfWidth != 123.25 || got.Owner != "w1" {
		t.Fatalf("round trip mangled the record: %+v", got)
	}

	// +Inf half-width survives the JSON round trip.
	inf := st
	inf.Group = "g2"
	inf.HalfWidth = infHalfWidth()
	if err := pub.publish(inf); err != nil {
		t.Fatal(err)
	}
	if got, ok := pub.read("g2", engine.Version); !ok || got.HalfWidth != infHalfWidth() {
		t.Fatalf("infinite half-width lost: %+v (ok=%v)", got, ok)
	}

	// An update replaces the record atomically.
	st.Seeds = 9
	if err := pub.publish(st); err != nil {
		t.Fatal(err)
	}
	if got, _ := pub.read("g1", engine.Version); got.Seeds != 9 {
		t.Fatalf("update not visible: %+v", got)
	}

	// Torn record: ignored, not fatal.
	if err := os.WriteFile(pub.pathFor("g3"), []byte(`{"version":1,"gro`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := pub.read("g3", engine.Version); ok {
		t.Fatal("torn record read as valid")
	}
	// Engine-version mismatch: ignored.
	if _, ok := pub.read("g1", "other-engine/9"); ok {
		t.Fatal("engine-mismatched record read as valid")
	}
}

func infHalfWidth() float64 {
	var zero float64
	return 1 / zero
}

// TestRunAdaptiveShardedSoloMatchesRunAdaptive pins the degenerate fleet: one
// cooperative worker alone walks the identical trajectory (and leaves a
// store a plain adaptive run can resume from, and vice versa).
func TestRunAdaptiveShardedSoloMatchesRunAdaptive(t *testing.T) {
	cells := adaptiveShardCells()
	ad := Adaptive{TargetCI: 50, MaxSeeds: 6}
	wantRes, wantInfos, _ := RunAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, infos, stats := RunAdaptiveSharded(cells, Options{Store: st}, ad, fastShard("solo"))
	st.Close()
	sameAdaptiveRun(t, "solo", res, wantRes, infos, wantInfos)
	if stats.Executed != len(wantRes) {
		t.Fatalf("solo worker executed %d, want %d", stats.Executed, len(wantRes))
	}

	// The single-process scheduler resumes from the sharded store untouched.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res2, infos2, stats2 := RunAdaptive(cells, Options{Store: re}, ad)
	if stats2.Executed != 0 {
		t.Fatalf("plain adaptive resume executed %d replicas over a sharded store, want 0", stats2.Executed)
	}
	sameAdaptiveRun(t, "plain resume", res2, wantRes, infos2, wantInfos)
}

// TestRunAdaptiveShardedOnResultStreamsInOrder pins the streaming contract:
// OnResult fires once per replica, in canonical index order, after the drain.
func TestRunAdaptiveShardedOnResultStreamsInOrder(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()
	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var seen []int
	res, _, _ := RunAdaptiveSharded(cells, Options{Store: st, OnResult: func(r engine.CellResult) {
		seen = append(seen, r.Index)
	}}, ad, fastShard("solo"))
	if len(seen) != len(res) {
		t.Fatalf("OnResult fired %d times, want %d", len(seen), len(res))
	}
	for i, idx := range seen {
		if idx != i {
			t.Fatalf("OnResult order broken at %d: got index %d", i, idx)
		}
	}
}

// TestRunAdaptiveShardedSurvivesAppendFailures pins the broken-disk
// degradation: when every checkpoint append fails (here: a closed store, so
// Lookup works but Append errors), the worker must still drive every group's
// trajectory to closure from its in-memory results — append failures mean
// re-runs on a later resume, never a stalled sweep — and report the failures
// in AppendErrs.
func TestRunAdaptiveShardedSurvivesAppendFailures(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()
	wantRes, wantInfos, _ := RunAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // Lookup keeps working; every Append now fails

	res, infos, stats := RunAdaptiveSharded(cells, Options{Store: st}, ad, fastShard("w"))
	if stats.AppendErrs != len(wantRes) {
		t.Fatalf("AppendErrs = %d, want %d (no replica could be checkpointed)", stats.AppendErrs, len(wantRes))
	}
	if stats.Executed != len(wantRes) {
		t.Fatalf("Executed = %d, want %d", stats.Executed, len(wantRes))
	}
	sameAdaptiveRun(t, "broken disk", res, wantRes, infos, wantInfos)
}

// TestRunAdaptiveShardedWaitsForFreshForeignLease pins lease respect on the
// adaptive path: a group freshly leased by a live peer is not re-run; the
// worker polls, merges the peer's records once they land, and still returns
// the full trajectory.
func TestRunAdaptiveShardedWaitsForFreshForeignLease(t *testing.T) {
	cells := adaptiveShardCells()
	ad := tightAdaptive()
	wantRes, wantInfos, _ := RunAdaptive(cells, Options{}, ad)

	dir := t.TempDir()
	peerGroup := groupKeyOf(cells[0])
	m := newLeaseManager(dir, Shard{Owner: "peer", TTL: time.Minute})
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, _, err := m.claim(peerGroup)
	if err != nil || l == nil {
		t.Fatalf("peer claim failed: %v", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(100 * time.Millisecond)
		st, err := OpenShared(dir)
		if err != nil {
			t.Errorf("peer: %v", err)
			return
		}
		defer st.Close()
		for _, r := range wantRes {
			if groupKeyOf(r.Cell) != peerGroup {
				continue
			}
			if err := st.Append(r.Cell.Key(), r); err != nil {
				t.Errorf("peer append: %v", err)
			}
		}
		l.release()
	}()

	st, err := OpenShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, infos, stats := RunAdaptiveSharded(cells, Options{Store: st}, ad, fastShard("waiter"))
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	peerReplicas := 0
	for _, r := range wantRes {
		if groupKeyOf(r.Cell) == peerGroup {
			peerReplicas++
		}
	}
	if stats.Executed != len(wantRes)-peerReplicas {
		t.Fatalf("Executed = %d, want %d (the peer ran its group)", stats.Executed, len(wantRes)-peerReplicas)
	}
	sameAdaptiveRun(t, "waiter", res, wantRes, infos, wantInfos)
}
