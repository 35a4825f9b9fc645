package fabric

import (
	"strings"
	"testing"

	"voqsim/internal/cell"
	"voqsim/internal/core"
	"voqsim/internal/destset"
	"voqsim/internal/snap"
	"voqsim/internal/xrand"
)

// TestLoadStateBoundsIDSpan saves 4-ary fat trees whose live-packet
// window, or one node's copy-context window, holds IDs 1 and 1<<44 —
// a state no run reaches, which a few bytes of snapshot can claim — and
// checks that LoadState refuses each for its ID span instead of
// restoring a window that doubles toward 2^45 entries on its next
// neighbouring ID.
func TestLoadStateBoundsIDSpan(t *testing.T) {
	build := func() *Fabric {
		top, err := FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(top, Config{}, func(ports int, r *xrand.Rand) Node {
			return core.NewSwitch(ports, &core.FIFOMS{}, r)
		}, xrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	live := func(f *Fabric, ids ...cell.PacketID) {
		for _, id := range ids {
			lv, _ := f.live.Ensure(id)
			*lv = liveInfo{remain: 1}
		}
	}
	for _, tc := range []struct {
		name  string
		state func(f *Fabric)
	}{
		{"live", func(f *Fabric) { live(f, 1, 1<<44) }},
		{"contexts", func(f *Fabric) {
			live(f, 1)
			f.nextLocal[0] = 1 << 44
			for _, local := range []cell.PacketID{1, 1 << 44} {
				ctx, _ := f.ctxs[0].Ensure(local)
				*ctx = ctxInfo{fab: 1, leaves: destset.FromMembers(f.top.Egress(), 0), remain: 1}
			}
		}},
	} {
		saved := build()
		tc.state(saved)
		w := snap.NewWriter()
		saved.SaveState(w)
		r, err := snap.NewReader(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if err := build().LoadState(r); err == nil || !strings.Contains(err.Error(), "span") {
			t.Errorf("%s window holding IDs 1 and 1<<44: LoadState = %v, want a span error", tc.name, err)
		}
	}
}
