// Command topogen generates one of the paper's network topologies (§6.1)
// and prints structural statistics, or dumps the edge list for external
// tools:
//
//	topogen -topology gnutella -hosts 39046
//	topogen -topology grid -hosts 10000 -edges > grid.txt
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"validity/internal/obs"
	"validity/internal/topology"
)

func main() {
	var (
		topo     = flag.String("topology", "random", "random | power-law | grid | gnutella")
		hosts    = flag.Int("hosts", 1000, "network size |H|")
		seed     = flag.Int64("seed", 1, "random seed")
		edges    = flag.Bool("edges", false, "dump the edge list instead of statistics")
		logLevel = flag.String("log-level", "info", "diagnostic log level on stderr: debug | info | warn | error")
	)
	flag.Parse()

	level, lerr := obs.ParseLevel(*logLevel)
	if lerr != nil {
		fmt.Fprintln(os.Stderr, "topogen:", lerr)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)

	kind, err := topology.ParseKind(*topo)
	if err != nil {
		logger.Error("topogen failed", "err", err)
		os.Exit(2)
	}
	g := topology.Generate(kind, *hosts, *seed)

	if *edges {
		if err := topology.WriteEdgeList(os.Stdout, g); err != nil {
			logger.Error("topogen failed", "err", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("topology    %s (seed %d)\n", kind, *seed)
	fmt.Printf("hosts       %d\n", g.Len())
	fmt.Printf("edges       %d\n", g.NumEdges())
	fmt.Printf("avg degree  %.2f\n", g.AvgDegree())
	fmt.Printf("max degree  %d\n", g.MaxDegree())
	fmt.Printf("diameter    %d (double-sweep lower bound)\n", g.DiameterSampled(3, nil))
	fmt.Printf("connected   %v\n", g.IsConnected(nil))

	hist := g.DegreeHistogram()
	degrees := make([]int, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	fmt.Println("degree histogram (degree: hosts):")
	shown := 0
	for _, d := range degrees {
		fmt.Printf("  %4d: %d\n", d, hist[d])
		shown++
		if shown >= 12 && len(degrees) > 14 {
			fmt.Printf("  ... and %d more degrees up to %d\n", len(degrees)-shown, degrees[len(degrees)-1])
			break
		}
	}
}
