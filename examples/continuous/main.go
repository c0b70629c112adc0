// Continuous: windowed continuous queries under steady churn (§4.2),
// running natively on the live query engine via the streaming subsystem
// (internal/stream).
//
// A monitoring application registers one long-running COUNT query over a
// P2P network with exponential session lengths (the Gnutella
// median-session measurement of the paper's footnote 1). The stream
// executes window k as the ordinary engine query stream.WindowID(1, k):
// the runtime's timer heap opens it at stream tick k·W, every peer
// derives the window's protocol instance, FM coins, and churn slice from
// the shared seed alone, the answer is read at quiescence, and the
// result arrives on a channel with that window's own H_C/H_U bounds —
// Continuous Single-Site Validity, window by window. A single query left
// running since window 1 would have an empty stable set instead (§4.2).
//
// This example drives real goroutine-per-peer execution with wall-clock
// hop delay — the concurrent execution a deployment would see — not the
// deterministic event simulator the figures use.
//
//	go run ./examples/continuous
package main

import (
	"fmt"
	"log"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/node"
	"validity/internal/protocol"
	"validity/internal/stream"
	"validity/internal/topology"
	"validity/internal/transport"
	"validity/internal/zipfval"
)

func main() {
	const (
		hosts   = 600
		seed    = 9
		windows = 6
		hop     = 5 * time.Millisecond
	)
	g := topology.NewGnutella(hosts, seed)
	values := zipfval.Default(seed).Values(hosts)
	dHat := g.DiameterSampled(2, nil) + 2

	plan := &stream.Plan{
		Query: 1,
		Spec: protocol.Query{
			Kind: agg.Count,
			Hq:   0, // the monitoring host; it must outlive the run
			DHat: dHat,
			// c = 64 FM repetitions keeps the displayed estimates stable
			// (§6.4 shows accuracy grows with c).
			Params: agg.Params{Vectors: 64, Bits: 32},
		},
		Windows: windows, // WindowLen 0 = the §4.2 minimum W = 2·D̂
		Seed:    seed,
		// Exponential session lifetimes with a mean of 4 windows, and
		// rebirth: a departed peer returns after an exponential downtime
		// of about one window and serves another session, so the H_U
		// column shrinks AND grows as arrivals race departures. Every
		// peer derives the identical timeline from the seed — no
		// coordination anywhere.
		Source: churn.Sessions{N: hosts, Mean: float64(8 * dHat), Rejoin: float64(2 * dHat)},
	}

	fmt.Printf("monitoring a %d-host network (D̂=%d, window W=2·D̂=%d ticks, δ=%v)\n",
		hosts, dHat, 2*dHat, hop)
	fmt.Printf("continuous COUNT query, %d windows, exponential sessions with rebirth\n\n", windows)
	fmt.Printf("%-7s %6s %10s %10s %10s %7s %9s %7s\n",
		"window", "H_U", "lower", "count", "upper", "valid", "messages", "lat")

	// The same four calls validityd -continuous makes: a runtime over a
	// transport (the channel transport delivers at δ/2, leaving handlers
	// headroom under the bound), the plan's window factory, Start, and a
	// Stream on the issuing process.
	rt, err := node.New(node.Config{
		Graph:     g,
		Values:    values,
		Transport: transport.NewChannel(hosts, hop/2),
		Hop:       hop,
	})
	if err != nil {
		log.Fatal(err)
	}
	rt.SetQueryFactory(plan.Factory(rt))
	if err := rt.Start(); err != nil {
		log.Fatal(err)
	}
	defer rt.Stop()
	s, err := stream.Start(rt, plan)
	if err != nil {
		log.Fatal(err)
	}

	for r := range s.Results() {
		if r.Err != nil {
			log.Fatalf("window %d: %v", r.Window, r.Err)
		}
		fmt.Printf("%-7d %6d %10.1f %10.1f %10.1f %7t %9d %5dms\n",
			r.Window+1, r.HU, r.Lower, r.Value, r.Upper, r.Valid,
			r.Stats.MessagesSent, r.Latency.Milliseconds())
	}

	fmt.Println("\nEach window's answer is judged against that window's own H_C/H_U")
	fmt.Println("(Continuous Single-Site Validity, §4.2); the H_U column moving both")
	fmt.Println("ways is the session churn — departures shrink it, rebirths grow it.")
	fmt.Println("Windows are ordinary engine queries derived from the seed and the")
	fmt.Println("window index — run the same stream across processes with")
	fmt.Println("validityd -continuous.")
}
