// SGX base64 attack (§5.2): an unprivileged Controlled Preemption thread
// single-steps an enclave decoding an RSA-1024 PEM file and reads the
// per-character LUT cache line through LLC Prime+Probe — the paper's
// "SGX-Step from userspace".
package main

import (
	"fmt"

	"repro/internal/exps"
	"repro/internal/report"
)

func main() {
	res := exps.RunFig52(&exps.Env{}, exps.Fig52Config{Keys: 2, Seed: 7})

	fmt.Println("SGX base64 PEM decode — LLC Prime+Probe from userspace")
	fmt.Printf("mean PEM body length: %.0f base64 characters (paper: 872)\n\n", res.MeanChars)
	fmt.Print(report.PercentBar("single-run coverage (paper 61.5%)", res.SingleCoverage))
	fmt.Print(report.PercentBar("single-run accuracy (paper 99.2%)", res.SingleAccuracy))
	fmt.Print(report.PercentBar("two-run spliced accuracy (paper 98.9%)", res.FullAccuracy))

	// The Figure 5.2 probe-latency trace: the validity loop shows as high
	// latency on the code eviction set (the victim keeps refetching the
	// evicted load instruction), and the LUT sets reveal which half of
	// the table each character indexed.
	fmt.Println("\nprobe-latency segment (validity loop = high code-set latency):")
	fmt.Print(report.LatencyTrace(res.TraceNames, res.TraceRows, [2]int64{1000, 2500}))
}
