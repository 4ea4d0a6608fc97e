package lint

import (
	"sort"
	"strconv"

	"repro/internal/diag"
)

// selfCheckAnalyzer validates the framework's convergence guarantee on
// every solved problem of the loop: the solve must have stabilized within
// two changing passes (§3.4). A violation is an error; a clean loop yields
// one informational finding so the check's coverage is visible in the
// output. Monotonicity and idempotence of the flow functions — the
// properties behind the paper's rapid-convergence argument — hold by
// construction (every compiled function is a clamp min(max(x, lo), hi))
// and are proven once in the solver's tests against the reference oracle.
var selfCheckAnalyzer = &Analyzer{
	ID:      "selfcheck",
	Doc:     "framework invariants: monotone, idempotent flow functions and 2-pass convergence",
	Problem: "all solved problems (§3.4 convergence bound)",
	Default: diag.Info,
	Run:     runSelfCheck,
}

func runSelfCheck(c *Context) []diag.Finding {
	names := make([]string, 0, len(c.Loop.Results()))
	for name := range c.Loop.Results() {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []diag.Finding
	maxChanged := 0
	for _, name := range names {
		res := c.Loop.Result(name)
		if res.ChangedPasses > maxChanged {
			maxChanged = res.ChangedPasses
		}
		// A fuel-exhausted solve stopped before its fixed point, so the
		// paper's convergence bound does not apply to its pass count.
		if res.ChangedPasses > 2 && !res.FuelExhausted {
			out = append(out, diag.Finding{
				Analyzer: "selfcheck",
				Pos:      c.Loop.Loop.Pos(),
				Severity: diag.Error,
				Message: "problem " + name + " needed " + strconv.Itoa(res.ChangedPasses) + " changing passes on the loop over " +
					c.Loop.Loop.Var + ", exceeding the framework's bound of 2",
				Detail: map[string]string{"problem": name, "changedPasses": strconv.Itoa(res.ChangedPasses)},
			})
		}
	}
	if len(out) == 0 {
		out = append(out, diag.Finding{
			Analyzer: "selfcheck",
			Pos:      c.Loop.Loop.Pos(),
			Severity: diag.Info,
			Message: "framework self-check passed for the loop over " + c.Loop.Loop.Var + ": " + strconv.Itoa(len(names)) +
				" problem(s) converged within " + strconv.Itoa(maxChanged) + " changing pass(es)",
			Detail: map[string]string{
				"problems":      strconv.Itoa(len(names)),
				"changedPasses": strconv.Itoa(maxChanged),
			},
		})
	}
	return out
}
