package daemon

import (
	"bytes"
	"runtime"
	"strconv"
	"testing"
	"time"

	"validity/internal/obs"
)

// runtimePeaks samples the two process-health numbers the sharded engine
// is supposed to bound — live goroutines and heap in use — on a fixed
// cadence until stop() is called, which returns the observed peaks.
type runtimePeaks struct {
	goroutines int
	heapInuse  uint64
	done       chan struct{}
	stopped    chan struct{}
}

func sampleRuntimePeaks(every time.Duration) *runtimePeaks {
	p := &runtimePeaks{done: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(p.stopped)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > p.goroutines {
				p.goroutines = n
			}
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > p.heapInuse {
				p.heapInuse = ms.HeapInuse
			}
			select {
			case <-p.done:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// stop ends sampling and returns (peak goroutines, peak heap-inuse bytes).
func (p *runtimePeaks) stop() (int, uint64) {
	close(p.done)
	<-p.stopped
	return p.goroutines, p.heapInuse
}

// TestScaleSmoke2K is the bounded scale gate in `make ci`: a 2,048-host
// single-process fleet answers a short query stream on the chan transport
// in seconds, and the goroutine peak must be O(shards + constant) — a
// regression back to goroutine-per-host (or to goroutine-per-in-flight-
// send in the chan transport) blows the bound by two orders of magnitude.
// State is bounded the same way: every answered query is retired by the
// time the stream ends, none is left waiting out a timer — and every
// answer is a counted read, none fell to the cap.
// Skipped under the race detector: the fleet size is calibrated for
// native execution, and the shard scheduler's serialization is already
// race-checked at small scale by internal/node's property tests.
func TestScaleSmoke2K(t *testing.T) {
	if raceEnabled {
		t.Skip("2K-host smoke is sized for native execution; run via make scale-smoke")
	}
	if testing.Short() {
		t.Skip("2K-host fleet takes a few seconds")
	}
	const hosts = 2048
	peaks := sampleRuntimePeaks(5 * time.Millisecond)
	var out bytes.Buffer
	cfg, err := ParseArgs("validityd", []string{
		"-transport", "chan",
		"-topology", "random", "-hosts", strconv.Itoa(hosts), "-seed", "23",
		"-query", "-hq", "0", "-agg", "count",
		"-queries", "2", "-concurrency", "1",
		// A 2K-host flood moves ~10K messages per round: δ must cover the
		// round's processing on this many hosts, and D̂ carries headroom
		// over the derived diameter+2 like any real deployment (§5.1).
		// Measured on a 2-core box (table in CHANGES.md, PR 14): 10 ms
		// loses a third of the answers to blown hops, 20 ms is the
		// smallest all-valid δ but reads at the cap with ~2.7× the
		// messages, 40 ms is valid with an early read — 2× headroom over
		// the floor, so the smoke tests the scheduler, not the box.
		"-hop", "40ms",
		"-dhat", "16",
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Out = &out
	cfg.Obs = obs.NewRegistry()
	if err := Run(cfg); err != nil {
		t.Fatalf("2K-host stream failed: %v\n%s", err, out.String())
	}
	peakG, peakHeap := peaks.stop()

	lines := resultRe.FindAllStringSubmatch(out.String(), -1)
	if len(lines) != 2 {
		t.Fatalf("got %d result lines, want 2:\n%s", len(lines), out.String())
	}
	for _, m := range lines {
		if m[4] != "true" {
			t.Fatalf("a 2K-host query was judged invalid:\n%s", out.String())
		}
	}

	// O(shards + transport + harness), NOT O(hosts): the shard workers
	// (≤ GOMAXPROCS), the timer loop, the chan transport's one delivery
	// scheduler, transient overflow drainers, and the stream/test harness.
	// 2048 hosts under the old goroutine-per-host runtime floored this at
	// hosts + extras ≈ 2100.
	bound := runtime.GOMAXPROCS(0) + 64
	if peakG > bound {
		t.Fatalf("peak goroutines %d exceeds O(shards) bound %d for %d hosts", peakG, bound, hosts)
	}
	// The old runtime eagerly allocated hosts × 4096-slot inbox channels
	// (~800 MB of channel buffers at 2K hosts before any query state).
	// The sharded queues make the footprint query-dominated — ~30 MB at
	// this scale — and a quarter GB of headroom still catches a
	// per-host-buffer regression.
	const heapCap = 256 << 20
	if peakHeap > heapCap {
		t.Fatalf("peak heap-inuse %d bytes exceeds %d for %d hosts", peakHeap, heapCap, hosts)
	}
	// Bounded state beside bounded goroutines: a query's 2K handlers go
	// when its answer is read, not a timer later, so the stream leaves
	// behind exactly as many retirements as answers and nothing unretired.
	count := func(name string) int64 { return cfg.Obs.Counter(name, "").Value() }
	inst, ret := count("node_queries_instantiated_total"), count("node_queries_retired_total")
	if live := inst - ret; ret != int64(len(lines)) || live != 0 {
		t.Fatalf("%d queries answered, %d instantiated, %d retired: %d live at stream end", len(lines), inst, ret, live)
	}
	// Every read was counted: a read that fell to the cap at this scale
	// means an item of the query never came off the books.
	if early, capped := count("node_early_reads_total"), count("node_deadline_reads_total"); capped != 0 || early != int64(len(lines)) {
		t.Fatalf("%d early reads, %d at the cap, want %d and none", early, capped, len(lines))
	}
	t.Logf("2K-host smoke: peak %d goroutines (bound %d), peak heap %.1f MB", peakG, bound, float64(peakHeap)/(1<<20))
}
