package switchsim

import (
	"voqsim/internal/check"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// NewChecked is New with the switch wrapped in the runtime invariant
// checker (internal/check); ck.Err() after the run is its verdict. The
// measured Results are identical to an unchecked run's — the checker
// draws no randomness, and the engine reads the switch's optional
// reporter capabilities through it (see capabilities) — so checking can
// be flipped on without disturbing any baseline number. The runner
// supports everything a bare one does: Instrument reaches the switch by
// way of Checker.SetObserver, and restoring a snapshot primes the
// checker's shadow model from the restored buffer content, so the
// invariants keep holding across a resume.
func NewChecked(sw Switch, pat traffic.Pattern, cfg Config, root *xrand.Rand, opt check.Options) (*Runner, *check.Checker) {
	ck := check.Wrap(sw, opt)
	return New(ck, pat, cfg, root), ck
}
