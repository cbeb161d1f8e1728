package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iolite/internal/httpd"
	"iolite/internal/obs"
	"iolite/internal/wload"
)

// Options tunes experiment durations. Quick mode runs fewer points with
// shorter windows — the shapes survive; the absolute noise grows slightly.
type Options struct {
	Quick bool
	// Progress receives one line per finished sweep point (may be nil).
	// It is called from the figure's own goroutine.
	Progress func(string)
	// Trace, when set, turns on request-lifecycle tracing: every figure
	// run attaches this collector, and the caller exports it (webbench
	// -trace). Nil keeps the hot paths at their zero-cost default.
	Trace *obs.Collector
}

// pick returns a figure's quick-mode value under opt.Quick, else its full one.
func pick[T any](opt Options, full, quick T) T {
	if opt.Quick {
		return quick
	}
	return full
}

// sweep runs a figure's grid of independent points — point (r, c) is
// run(at(r, c)), for row label rows[r] and column t.Columns[c] — on
// min(GOMAXPROCS, points) workers, each point in its own world. It fills
// t.Rows with value of each result in point order, whatever order the
// points finish in, and returns the result grid for the figure's notes.
// A trace collector binds one engine at a time and is reset at every
// world's warmup, so a traced sweep runs its points one at a time.
func sweep[P, R any](opt Options, t *Table, rows []string, at func(r, c int) P, run func(P) R, value func(R) float64) [][]R {
	cols := len(t.Columns)
	n := len(rows) * cols
	res := make([][]R, len(rows))
	for r := range res {
		res[r] = make([]R, cols)
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	if opt.Trace != nil {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	done := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				res[i/cols][i%cols] = run(at(i/cols, i%cols))
				done <- i
			}
		}()
	}
	for range n {
		i := <-done
		if opt.Progress != nil {
			r, c := i/cols, i%cols
			opt.Progress(fmt.Sprintf("%s %s %s: %+v", t.Title, rows[r], t.Columns[c], res[r][c]))
		}
	}
	wg.Wait()
	for r, label := range rows {
		row := Row{Label: label}
		for _, v := range res[r] {
			row.Values = append(row.Values, value(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return res
}

// labels renders one row label per x-axis point.
func labels[T any](xs []T, label func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = label(x)
	}
	return out
}

// webServers is the standard three-way comparison, and webColumns its
// column labels.
var (
	webServers = []ServerConfig{CfgFlashLite, CfgFlash, CfgApache}
	webColumns = []string{"Flash-Lite", "Flash", "Apache"}
)

// webFigure sweeps RunWeb over rows × server configurations: at(r) is row
// r's workload, to which each column adds its configuration. The cells are
// aggregate client bandwidth in Mb/s.
func webFigure(opt Options, t *Table, rows []string, configs []ServerConfig, at func(r int) WebParams) *Table {
	sweep(opt, t, rows, func(r, c int) WebParams {
		wp := at(r)
		wp.Server, wp.Obs = configs[c], opt.Trace
		return wp
	}, RunWeb, func(r WebResult) float64 { return r.Mbps })
	return t
}

// singleFileFigure runs the Figure 3/4/5/6 family: 40 clients requesting
// one document of varying size. The x-axis is the paper's: "the data
// points below 20KB are 500 bytes, 1KB, 2KB, 3KB, 5KB, 7KB, 10KB, and
// 15KB", then up to 200 KB.
func singleFileFigure(title string, cgi, persistent bool, opt Options) *Table {
	t := &Table{
		Title:   title,
		XLabel:  "doc size",
		Columns: webColumns,
		Notes:   []string{"values are aggregate client bandwidth in Mb/s; 40 clients, 5 machines, 5x100 Mb/s"},
	}
	sizes := pick(opt, []int64{500, 1 << 10, 2 << 10, 3 << 10, 5 << 10, 7 << 10, 10 << 10,
		15 << 10, 20 << 10, 50 << 10, 100 << 10, 150 << 10, 200 << 10},
		[]int64{500, 5 << 10, 20 << 10, 100 << 10, 200 << 10})
	warm, meas := pick(opt, 1*time.Second, 500*time.Millisecond), pick(opt, 4*time.Second, 2*time.Second)
	rows := labels(sizes, func(n int64) string {
		if n < 1024 {
			return fmt.Sprintf("%dB", n)
		}
		return fmt.Sprintf("%dKB", n>>10)
	})
	return webFigure(opt, t, rows, webServers, func(r int) WebParams {
		wp := WebParams{Clients: 40, Persistent: persistent, Warmup: warm, Measure: meas, Seed: 1}
		if cgi {
			wp.CGISize = sizes[r]
		} else {
			wp.SingleFileSize = sizes[r]
		}
		return wp
	})
}

// Fig3 — HTTP single-file test, nonpersistent connections (§5.1).
func Fig3(opt Options) *Table {
	return singleFileFigure("Figure 3: HTTP single-file, nonpersistent", false, false, opt)
}

// Fig4 — persistent-connection single-file test (§5.2).
func Fig4(opt Options) *Table {
	return singleFileFigure("Figure 4: HTTP single-file, persistent", false, true, opt)
}

// Fig5 — FastCGI dynamic documents, nonpersistent (§5.3).
func Fig5(opt Options) *Table {
	return singleFileFigure("Figure 5: HTTP/FastCGI, nonpersistent", true, false, opt)
}

// Fig6 — FastCGI dynamic documents, persistent (§5.3).
func Fig6(opt Options) *Table {
	return singleFileFigure("Figure 6: HTTP/FastCGI, persistent", true, true, opt)
}

// Fig7 — trace characteristics: cumulative request and data-size fractions
// by file popularity rank for ECE, CS and MERGED (§5.4).
func Fig7(opt Options) *Table {
	t := &Table{
		Title:   "Figure 7: trace characteristics (cumulative fractions at popularity ranks)",
		XLabel:  "trace/rank",
		Columns: []string{"req frac", "size frac"},
	}
	specs := []wload.TraceSpec{wload.ECE, wload.CS, wload.MERGED}
	// The three logs generate concurrently; rows fill in spec order.
	traces := make([]*wload.Trace, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[i] = traceFor(spec)
		}()
	}
	wg.Wait()
	for i, spec := range specs {
		tr := traces[i]
		for _, rank := range []int{1000, 5000, 10000, 20000, spec.Files} {
			if rank <= spec.Files {
				rf, sf := tr.FracAtRank(rank)
				t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%s@%d", spec.Name, rank), Values: []float64{rf, sf}})
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper anchors: ECE@5000 = 95% of requests / 39% of 523MB",
		"ECE 783529 reqs/10195 files; CS 3746842/26948; MERGED 2290909/37703")
	return t
}

// traceCache maps a trace name to its generator, run once per process:
// generation is deterministic but costs a second or two for the big logs.
// Concurrent runs of one trace wait for its one generation, and no other.
var traceCache sync.Map

func traceFor(spec wload.TraceSpec) *wload.Trace {
	gen, _ := traceCache.LoadOrStore(spec.Name, sync.OnceValue(func() *wload.Trace { return wload.Generate(spec) }))
	return gen.(func() *wload.Trace)()
}

// Fig8 — overall trace performance: 64 clients replaying each full trace
// against each server (§5.4).
func Fig8(opt Options) *Table {
	t := &Table{Title: "Figure 8: overall trace performance (Mb/s)", XLabel: "trace", Columns: webColumns}
	specs := pick(opt, []wload.TraceSpec{wload.ECE, wload.CS, wload.MERGED}, []wload.TraceSpec{wload.ECE, wload.MERGED})
	warm, meas := pick(opt, 6*time.Second, 3*time.Second), pick(opt, 12*time.Second, 6*time.Second)
	rows := labels(specs, func(s wload.TraceSpec) string { return s.Name })
	return webFigure(opt, t, rows, webServers, func(r int) WebParams {
		return WebParams{Clients: 64, Trace: traceFor(specs[r]), Warmup: warm, Measure: meas, Seed: 2}
	})
}

// Fig9 — 150 MB subtrace characteristics (§5.5).
func Fig9(opt Options) *Table {
	tr := traceFor(wload.Subtrace150)
	t := &Table{Title: "Figure 9: 150MB subtrace characteristics", XLabel: "rank", Columns: []string{"req frac", "size frac"}}
	for _, rank := range []int{100, 500, 1000, 2000, 5459} {
		rf, sf := tr.FracAtRank(rank)
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("%d", rank), Values: []float64{rf, sf}})
	}
	t.Notes = append(t.Notes, "paper anchor: top 1000 files = 74% of requests / 20% of 150MB",
		fmt.Sprintf("generated mean request size: %d KB", tr.MeanRequestBytes()>>10))
	return t
}

// subtraceFigure runs each server configuration across the data-set
// sweep of Figures 10 and 11, one column per configuration.
func subtraceFigure(title string, configs []ServerConfig, columns []string, opt Options) *Table {
	t := &Table{Title: title, XLabel: "data set", Columns: columns}
	sizes := pick(opt, []int64{15 << 20, 30 << 20, 60 << 20, 90 << 20, 120 << 20, 150 << 20},
		[]int64{30 << 20, 90 << 20, 150 << 20})
	warm, meas := pick(opt, 5*time.Second, 3*time.Second), pick(opt, 10*time.Second, 5*time.Second)
	rows := labels(sizes, func(ds int64) string { return fmt.Sprintf("%dMB", ds>>20) })
	return webFigure(opt, t, rows, configs, func(r int) WebParams {
		tr := traceFor(wload.Subtrace150).Prefix(sizes[r])
		return WebParams{Clients: 64, Trace: tr, Warmup: warm, Measure: meas, Seed: 3}
	})
}

// Fig10 — MERGED subtrace performance vs data set size (§5.5).
func Fig10(opt Options) *Table {
	return subtraceFigure("Figure 10: MERGED subtrace performance (Mb/s)", webServers, webColumns, opt)
}

// Fig11 — optimization contributions: Flash-Lite with {GDS, LRU} × {cksum
// cache on, off}, plus Flash for reference (§5.6).
func Fig11(opt Options) *Table {
	return subtraceFigure("Figure 11: optimization contributions (Mb/s)",
		[]ServerConfig{
			{Kind: httpd.FlashLite},
			{Kind: httpd.FlashLite, Policy: "LRU"},
			{Kind: httpd.FlashLite, NoCksumCache: true},
			{Kind: httpd.FlashLite, Policy: "LRU", NoCksumCache: true},
			{Kind: httpd.Flash},
		},
		[]string{"FlashLite", "FlashLite LRU", "FlashLite no-ck", "FlashLite LRU no-ck", "Flash"}, opt)
}

type fig12Point struct{ rttMs, clients int }

// fig12Points are Figure 12's x-axis: the round-trip WAN delay, with the
// client population scaled linearly 64→900 to keep the server saturated
// (§5.7). Delay here is one-way (the paper quotes round trip).
var fig12Points = []fig12Point{{0, 64}, {5, 92}, {50, 343}, {100, 620}, {150, 900}}

// Fig12 — throughput versus WAN delay with a 120 MB data set (§5.7).
func Fig12(opt Options) *Table {
	t := &Table{Title: "Figure 12: throughput vs WAN delay, 120MB data set (Mb/s)", XLabel: "RTT delay", Columns: webColumns}
	tr := traceFor(wload.Subtrace150).Prefix(120 << 20)
	points := pick(opt, fig12Points, []fig12Point{fig12Points[0], fig12Points[2], fig12Points[4]})
	warm, meas := pick(opt, 6*time.Second, 4*time.Second), pick(opt, 10*time.Second, 6*time.Second)
	rows := labels(points, func(pt fig12Point) string {
		if pt.rttMs == 0 {
			return "LAN"
		}
		return fmt.Sprintf("%dms", pt.rttMs)
	})
	return webFigure(opt, t, rows, webServers, func(r int) WebParams {
		delay := time.Duration(points[r].rttMs) * time.Millisecond / 2
		return WebParams{Clients: points[r].clients, Delay: delay, Trace: tr, Warmup: warm, Measure: meas, Seed: 4}
	})
}
