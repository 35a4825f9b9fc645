package experiment

import (
	"fmt"

	invcheck "voqsim/internal/check"
	"voqsim/internal/fabric"
	"voqsim/internal/switchsim"
	"voqsim/internal/traffic"
	"voqsim/internal/xrand"
)

// Run construction (DESIGN.md "Run construction"). Every simulation the
// module starts — a facade Run, a CLI invocation, a grid point, a
// replication, a saturation probe — is assembled here, so the seed
// derivation and the wiring order exist once.

// Resolve turns a run's description of its switch into what the engine
// builds: the named algorithm, lifted onto the topology when one is
// given, and the port count N it runs at. With a topology, ports may be
// 0 (use the fabric's external port count) and must otherwise equal it;
// workers > 1 steps the fabric's nodes on that many goroutines.
func Resolve(name, topology string, ports, workers int) (Algorithm, int, error) {
	algo, err := ByName(name)
	if err != nil {
		return Algorithm{}, 0, err
	}
	if workers > 1 && topology == "" {
		return Algorithm{}, 0, fmt.Errorf("experiment: Parallel %d needs a Topology; a single switch steps sequentially", workers)
	}
	if topology != "" {
		top, err := fabric.ParseSpec(topology)
		if err != nil {
			return Algorithm{}, 0, err
		}
		if ports == 0 {
			ports = top.Ingress()
		}
		if ports != top.Ingress() {
			return Algorithm{}, 0, fmt.Errorf("experiment: Ports %d does not match the %d external ports of topology %s",
				ports, top.Ingress(), top.Name())
		}
		if algo, err = WithTopology(algo, top, fabric.Config{Workers: workers}); err != nil {
			return Algorithm{}, 0, err
		}
	}
	if ports <= 0 {
		return Algorithm{}, 0, fmt.Errorf("experiment: Ports must be positive, got %d", ports)
	}
	return algo, ports, nil
}

// Seeding names the two PRNG substreams a run derives from its seed,
// one for the switch and one for the traffic. There are exactly two
// labelings and both are pinned: checkpoint blobs and goldens embed the
// streams they derive, so changing either would orphan them.
type Seeding struct{ sw, traffic string }

var (
	// RunSeeding is the labeling of single runs: the facade, the voqsim
	// and voqtrace CLIs, replications and probes (and, outside this
	// package, voqd and the checker's differential test).
	RunSeeding = Seeding{"switch", "traffic"}
	// pointSeeding is the labeling of a Sweep's grid points.
	pointSeeding = Seeding{"run-switch", "run-traffic"}
)

// NewRunner builds the engine runner of one simulation: algo's n-port
// switch on the switch substream of cfg.Seed, wrapped in the invariant
// checker when checked (ck is nil otherwise), fed by pat on the traffic
// substream. release must be called once the run is over: it stops any
// goroutines the switch owns (a parallel fabric's workers).
func (s Seeding) NewRunner(algo Algorithm, n int, pat traffic.Pattern, cfg switchsim.Config,
	checked bool) (r *switchsim.Runner, ck *invcheck.Checker, release func()) {

	root := xrand.New(cfg.Seed)
	sw := algo.New(n, root.Split(s.sw, 0))
	release = func() {
		if c, ok := sw.(interface{ Close() error }); ok {
			c.Close()
		}
	}
	if checked {
		r, ck = switchsim.NewChecked(sw, pat, cfg, root.Split(s.traffic, 0), invcheck.Options{})
	} else {
		r = switchsim.New(sw, pat, cfg, root.Split(s.traffic, 0))
	}
	return r, ck, release
}
