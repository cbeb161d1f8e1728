package experiments

import (
	"fmt"

	"iolite/internal/apps"
	"iolite/internal/sim"
)

// Fig13 — runtimes of the converted applications (§5.8): wc on a cached
// 1.75 MB file, cat|grep over the same file, permute piping 145 MB into
// wc, and the gcc pipeline over 27 files / 167 KB. Columns are unmodified
// and IO-Lite runtimes in milliseconds plus the normalized ratio the
// paper's bar chart shows.
func Fig13(opt Options) *Table {
	t := &Table{
		Title:   "Figure 13: application runtimes",
		XLabel:  "program",
		Columns: []string{"unmod (ms)", "IO-Lite (ms)", "normalized"},
	}
	const fileName = "/input.dat"
	fileSize := int64(1792 << 10) // 1.75 MB
	permuteBytes := int64(145_152_000)
	gccFiles, gccBytes := 27, int64(167<<10)
	if opt.Quick {
		permuteBytes = 16 << 20
	}

	ms := func(d sim.Duration) float64 { return float64(d) / 1e6 }
	addRow := func(name string, unmod, iol sim.Duration) {
		t.Rows = append(t.Rows, Row{
			Label:  name,
			Values: []float64{ms(unmod), ms(iol), float64(iol) / float64(unmod)},
		})
	}

	warm := map[string]int64{fileName: fileSize}
	wcU := apps.WC(apps.NewAppMachine(warm), apps.Unmodified, fileName)
	wcL := apps.WC(apps.NewAppMachine(warm), apps.IOLite, fileName)
	addRow("wc", wcU.Elapsed, wcL.Elapsed)

	pU := apps.Permute(apps.NewAppMachine(nil), apps.Unmodified, permuteBytes)
	pL := apps.Permute(apps.NewAppMachine(nil), apps.IOLite, permuteBytes)
	addRow("permute", pU.Elapsed, pL.Elapsed)

	pattern := []byte("\x42\x17")
	gU := apps.CatGrep(apps.NewAppMachine(warm), apps.Unmodified, fileName, pattern)
	gL := apps.CatGrep(apps.NewAppMachine(warm), apps.IOLite, fileName, pattern)
	addRow("grep", gU.Elapsed, gL.Elapsed)

	files := map[string]int64{}
	var names []string
	per := gccBytes / int64(gccFiles)
	for i := 0; i < gccFiles; i++ {
		name := fmt.Sprintf("/src%02d.c", i)
		files[name] = per
		names = append(names, name)
	}
	cU := apps.GCC(apps.NewAppMachine(files), apps.Unmodified, names)
	cL := apps.GCC(apps.NewAppMachine(files), apps.IOLite, names)
	addRow("gcc", cU.Elapsed, cL.Elapsed)

	t.Notes = append(t.Notes,
		"paper: wc -37%, permute -33%, grep -48%, gcc ≈0%",
		fmt.Sprintf("permute pipes %d MB; grep counts boundary-line copies", permuteBytes>>20))
	return t
}
