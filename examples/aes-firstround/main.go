// AES first-round attack (§5.1): recover the upper nibble of every AES-128
// key byte from 5 Flush+Reload traces collected with a single Controlled
// Preemption thread.
package main

import (
	"fmt"

	"repro/internal/exps"
	"repro/internal/report"
)

func main() {
	res := exps.RunFig51(&exps.Env{}, exps.Fig51Config{
		Keys:         3,
		TracesPerKey: 5,
		Sched:        exps.CFS,
		Seed:         2026,
	})

	fmt.Println("AES T-table first-round attack — one attacker thread, 5 traces per key")
	fmt.Print(report.PercentBar("upper-nibble recovery (paper 98.9%)", res.NibbleAccuracy))
	fmt.Printf("mean preemption samples per trace: %.0f\n\n", res.PerTraceSamples)

	// The Figure 5.1 heatmap of one trace: rows are T0's 16 cache lines,
	// columns are attacker samples; the first four hits (in time order)
	// are the first-round accesses whose lines equal the upper nibbles of
	// x(0) = p ⊕ k.
	n := len(res.Heatmap[0])
	if n > 90 {
		n = 90
	}
	rows := make([][]bool, len(res.Heatmap))
	for i := range rows {
		rows[i] = res.Heatmap[i][:n]
	}
	fmt.Println("Flush+Reload heatmap for table T0 (one encryption):")
	fmt.Print(report.Heatmap(rows, func(i int) string { return fmt.Sprintf("line %2d", i) }))
	fmt.Printf("\nfirst four lines observed: %v\n", res.HeatmapFirstFour)
	fmt.Printf("true first-round nibbles:  %v\n", res.HeatmapTruth)
}
