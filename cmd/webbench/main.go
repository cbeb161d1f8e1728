// Command webbench regenerates the paper's Web-server figures (3-13) on
// the simulated testbed — plus the caching reverse-proxy and fcgi
// worker-pool scenarios — and prints the tables they plot.
//
// Usage:
//
//	webbench -fig 3          # one figure
//	webbench -fig proxy      # the reverse-proxy tier comparison
//	webbench -fig fcgi       # the fcgi worker-pool scaling study
//	webbench -fig fcginet    # fcgi worker placement: the LAN-tax study
//	webbench -fig chaos      # fault injection: loss × kills × replay
//	webbench -fig qos        # multi-tenant isolation under a heavy hitter
//	webbench -fig all -quick # every figure, reduced point set
//	webbench -fig proxy -trace t.json  # + Chrome trace-event export
//
// A figure's points are independent runs and execute on GOMAXPROCS
// workers; GOMAXPROCS=1 runs them one at a time. The printed tables are
// the same either way.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"iolite/internal/experiments"
	"iolite/internal/obs"
)

// figures lists every figure in the order -fig all runs them.
var figures = []struct {
	name string
	fn   func(experiments.Options) *experiments.Table
}{
	{"3", experiments.Fig3},
	{"4", experiments.Fig4},
	{"5", experiments.Fig5},
	{"6", experiments.Fig6},
	{"7", experiments.Fig7},
	{"8", experiments.Fig8},
	{"9", experiments.Fig9},
	{"10", experiments.Fig10},
	{"11", experiments.Fig11},
	{"12", experiments.Fig12},
	{"13", experiments.Fig13},
	{"proxy", experiments.FigProxy},
	{"fcgi", experiments.FigFCGI},
	{"fcginet", experiments.FigFCGINet},
	{"chaos", experiments.FigChaos},
	{"qos", experiments.FigQoS},
}

func main() {
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
	}
	choices := strings.Join(names, ", ") + " or all"
	fig := flag.String("fig", "all", "figure to regenerate: "+choices)
	quick := flag.Bool("quick", false, "reduced point set and shorter windows")
	verbose := flag.Bool("v", false, "progress output")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file of request spans; "+
		"the collector is reset at every run's warmup, so it and the printed p50/p99 and phase totals "+
		"cover only the last point's measure window, and traced figures run their points one at a time")
	flag.Parse()
	if *fig != "all" && !slices.Contains(names, *fig) {
		fmt.Fprintf(os.Stderr, "webbench: unknown figure %q (want %s)\n", *fig, choices)
		os.Exit(2)
	}

	opt := experiments.Options{Quick: *quick}
	if *verbose {
		opt.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	if *trace != "" {
		opt.Trace = obs.New()
	}

	for _, f := range figures {
		if *fig != "all" && *fig != f.name {
			continue
		}
		start := time.Now()
		tbl := f.fn(opt)
		fmt.Println(tbl.Format())
		fmt.Printf("(figure %s regenerated in %v)\n\n", f.name, time.Since(start).Round(time.Millisecond))
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "webbench: %v\n", err)
			os.Exit(1)
		}
		if err := opt.Trace.WriteTrace(f); err != nil {
			fmt.Fprintf(os.Stderr, "webbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		for _, kind := range opt.Trace.Kinds() {
			fmt.Printf("trace %s: p50 %v p99 %v (%d spans retained)\n",
				kind, opt.Trace.Quantile(kind, 0.50), opt.Trace.Quantile(kind, 0.99),
				len(opt.Trace.Finished()))
		}
		fmt.Print(opt.Trace.Summary())
		fmt.Printf("trace written to %s\n", *trace)
	}
}
