package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/fatgather/fatgather/internal/engine"
	"github.com/fatgather/fatgather/internal/sweep"
	"github.com/fatgather/fatgather/internal/sweep/netbackend"
	"github.com/fatgather/fatgather/internal/workload"
)

// coordWorkers is the number of lease-claiming workers of coord-sweep.
const coordWorkers = 2

// hooks instrument one pass from the outside: the traced run uses them to put
// timing wrappers around the calls the pass makes into each layer. A nil hook
// leaves that layer untouched, so the untraced run executes exactly what a
// user of the library would.
type hooks struct {
	// cells replaces the cell slice handed to worker w (its Algorithm
	// wrappers must preserve the algorithm's name, and so the cell keys).
	cells func(w int, cells []engine.Cell) []engine.Cell
	// workloads wraps the placement generator of worker w.
	workloads func(w int, gen engine.WorkloadFunc) engine.WorkloadFunc
	// backend wraps the sweep backend of worker w before the store opens.
	backend func(w int, b sweep.Backend) sweep.Backend
	// handler wraps the gatherd handler serving worker w.
	handler func(w int, h http.Handler) http.Handler
}

// rig is one set-up instance of a workload: the expanded grid and, for
// coord-sweep, a running in-process gatherd with an open store per worker.
type rig struct {
	sp    spec
	cells []engine.Cell
	keys  []string
	setup time.Duration

	srv     *netbackend.Server
	servers []*http.Server
	serving sync.WaitGroup
	urls    []string
	store   string
	stores  []*sweep.Store
}

// storeSeq names each rig's gatherd store uniquely, so every pass starts from
// an empty record log.
var storeSeq int

// setUp expands the grid and, for coord-sweep, starts gatherd and opens one
// store per worker: everything up to the first cell dispatched. The elapsed
// time is the rig's setup.
func setUp(sp spec, base int64, short bool, h *hooks) (*rig, error) {
	start := time.Now()
	r := &rig{sp: sp, cells: sp.cells(base, short)}
	if err := engine.ValidateCells(r.cells); err != nil {
		return nil, err
	}
	r.keys = make([]string, len(r.cells))
	for i, c := range r.cells {
		r.keys[i] = c.Key()
	}
	if sp.coord {
		if err := r.startCoordinator(h); err != nil {
			r.close()
			return nil, err
		}
	}
	r.setup = time.Since(start)
	return r, nil
}

// startCoordinator runs one gatherd core behind a loopback listener per
// worker (one shared lease table and record log; separate listeners only let
// the traced run tell the workers' requests apart) and opens each worker's
// store through a netbackend client.
func (r *rig) startCoordinator(h *hooks) error {
	srv, err := netbackend.NewServer("")
	if err != nil {
		return err
	}
	r.srv = srv
	storeSeq++
	name := fmt.Sprintf("perfbench-%d", storeSeq)
	r.store = name
	for w := 0; w < coordWorkers; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("gatherd listen: %w", err)
		}
		handler := srv.Handler()
		if h != nil && h.handler != nil {
			handler = h.handler(w, handler)
		}
		hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
		r.servers = append(r.servers, hs)
		r.serving.Add(1)
		go func() {
			defer r.serving.Done()
			_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it
		}()
		url := "http://" + ln.Addr().String()
		r.urls = append(r.urls, url)
		cli, err := netbackend.NewClient(url, name)
		if err != nil {
			return err
		}
		var b sweep.Backend = cli
		if h != nil && h.backend != nil {
			b = h.backend(w, b)
		}
		st, err := sweep.OpenBackend(b)
		if err != nil {
			_ = cli.Close()
			return fmt.Errorf("open store: %w", err)
		}
		r.stores = append(r.stores, st)
	}
	return nil
}

// close stops gatherd and waits for its serving goroutines.
func (r *rig) close() {
	for _, st := range r.stores {
		_ = st.Close() // in-memory coordinator: nothing left to flush
	}
	for _, hs := range r.servers {
		_ = hs.Close()
	}
	r.serving.Wait()
	if r.srv != nil {
		_ = r.srv.Close()
	}
}

// passResult is what one execution of the grid produced.
type passResult struct {
	// results holds each worker's full result set in cell order (one entry
	// for engine workloads, one per coordinated worker for coord-sweep).
	results [][]engine.CellResult
	stats   []sweep.ShardStats
	// caches are the workers' workload caches (nil entries without one).
	caches []*workload.Cache
	// start is when the first cell was dispatched; done[w] is when worker w
	// returned. wall runs from start to the last return.
	start time.Time
	done  []time.Time
	wall  time.Duration
	cpu   time.Duration
}

// run executes the grid once: engine.Run for engine workloads, two
// concurrent sweep.RunSharded workers for coord-sweep.
func (r *rig) run(h *hooks) passResult {
	n := 1
	if r.sp.coord {
		n = coordWorkers
	}
	p := passResult{
		results: make([][]engine.CellResult, n),
		stats:   make([]sweep.ShardStats, n),
		caches:  make([]*workload.Cache, n),
		done:    make([]time.Time, n),
	}
	cellsFor := make([][]engine.Cell, n)
	gens := make([]engine.WorkloadFunc, n)
	for w := 0; w < n; w++ {
		cellsFor[w] = r.cells
		if h != nil && h.cells != nil {
			cellsFor[w] = h.cells(w, r.cells)
		}
		if r.sp.cache {
			p.caches[w] = workload.NewCache()
			gens[w] = p.caches[w].Generate
		}
		if h != nil && h.workloads != nil {
			gen := gens[w]
			if gen == nil {
				gen = workload.Generate
			}
			gens[w] = h.workloads(w, gen)
		}
	}
	cpu0 := cpuTime()
	p.start = time.Now()
	if !r.sp.coord {
		p.results[0] = engine.Run(cellsFor[0], engine.Options{Workers: r.sp.workers, Workloads: gens[0]})
		p.done[0] = time.Now()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				opts := sweep.Options{
					Engine: engine.Options{Workers: r.sp.workers, Workloads: gens[w]},
					Store:  r.stores[w],
				}
				p.results[w], p.stats[w] = sweep.RunSharded(cellsFor[w], opts, sweep.Shard{Owner: fmt.Sprintf("worker-%d", w)})
				p.done[w] = time.Now()
			}(w)
		}
		wg.Wait()
	}
	for _, t := range p.done {
		if d := t.Sub(p.start); d > p.wall {
			p.wall = d
		}
	}
	p.cpu = cpuTime() - cpu0
	return p
}

// cpuTime is the user+system CPU time this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS tracking of this process, so
// the next peakRSSMiB covers one round only. Where the reset is unavailable
// the peak covers the process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set size since the last
// resetPeakRSS (VmHWM), falling back to the lifetime peak from getrusage.
func peakRSSMiB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// solo runs the grid with a plain engine.Run, the reference coord-sweep's
// coordinated workers must reproduce.
func solo(cells []engine.Cell) []engine.CellResult {
	return engine.Run(cells, engine.Options{Workers: coordWorkers, Workloads: workload.NewCache().Generate})
}

var errIncorrect = errors.New("outputs failed the correctness check")
