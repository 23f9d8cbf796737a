// Mitigation (Chapter 6): what the Linux security team's recommended
// NO_WAKEUP_PREEMPTION setting does to the attack, and what it costs.
// With wakeup preemption on, a single attacker thread preempts the victim
// hundreds of times at few-instruction resolution; with it off, the
// attacker only runs at Scenario-1 slice boundaries and the channel's
// temporal resolution collapses by five orders of magnitude — the price is
// system responsiveness (every sleeper now waits out the current slice).
package main

import (
	"fmt"

	"repro/internal/exps"
)

func main() {
	fmt.Println("Chapter 6 — hardening the thread scheduler")
	fmt.Println()

	r := exps.RunAblationNoWakeupPreemption(&exps.Env{}, 1)
	fmt.Print(r)
	fmt.Println()

	g := exps.RunAblationGentleFairSleepers(&exps.Env{}, 2)
	fmt.Print(g)
	fmt.Println()

	s := exps.RunAblationDefaultTimerSlack(&exps.Env{}, 3)
	fmt.Print(s)
	fmt.Println()

	fmt.Println("takeaway: the attack lives exactly in the scheduler's responsiveness")
	fmt.Println("heuristics — every mitigation trades some responsiveness away.")
}
