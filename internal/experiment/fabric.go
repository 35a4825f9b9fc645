package experiment

import (
	"fmt"

	"voqsim/internal/fabric"
	"voqsim/internal/switchsim"
	"voqsim/internal/xrand"
)

// WithTopology lifts a single-switch algorithm to a multi-stage
// fabric: every node of the topology runs a fresh instance of the
// algorithm's switch, wired by the topology's bounded links, and the
// compound behaves as one switchsim.Switch of Ingress() ports. Node i
// is seeded with the run root's Split("node", i), so fabric runs are
// as reproducible as single-switch runs.
//
// The topology must be square (ingress count == egress count) because
// the engine drives one N for both sides; Runner calls New with that
// N, so sweeps over a topology algorithm must use N = top.Ingress().
func WithTopology(algo Algorithm, top *fabric.Topology, cfg fabric.Config) (Algorithm, error) {
	if top.Ingress() != top.Egress() {
		return Algorithm{}, fmt.Errorf("experiment: topology %s has %d ingress but %d egress ports; the engine needs a square fabric",
			top.Name(), top.Ingress(), top.Egress())
	}
	inner := algo.New
	return Algorithm{
		Name: algo.Name + "@" + top.Name(),
		New: func(n int, root *xrand.Rand) switchsim.Switch {
			if n != top.Ingress() {
				panic(fmt.Sprintf("experiment: %d-port run of the %d-ingress topology %s",
					n, top.Ingress(), top.Name()))
			}
			f, err := fabric.New(top, cfg, func(ports int, r *xrand.Rand) fabric.Node {
				// Every single-switch architecture is a fabric node.
				return inner(ports, r).(fabric.Node)
			}, root)
			if err != nil {
				// New validates only the node factory's port counts,
				// which are the topology's own — unreachable here.
				panic(err)
			}
			return f
		},
	}, nil
}
