package obs

import "fmt"

// Standard metric names registered by the instrumented switches, so
// that tools and tests never disagree on spelling. Not every switch
// registers every name: request/grant/round counters come from the
// arbitration step, occupancy high-water marks from the queueing step.
const (
	// MetricArrivals counts packets handed to Arrive.
	MetricArrivals = "arrivals_total"
	// MetricEnqueues counts queue entries created (address cells on
	// the paper's structure; cells or packets on the baselines).
	MetricEnqueues = "enqueued_cells_total"
	// MetricDepartures counts cell copies delivered across the fabric.
	MetricDepartures = "departures_total"
	// MetricCompleted counts packets whose last copy departed.
	MetricCompleted = "packets_completed_total"
	// MetricSplits counts fanout splits: slots in which an input
	// served only part of a multicast packet's remaining destinations.
	// Divide by MetricArrivals for the paper's splits-per-packet rate.
	MetricSplits = "splits_total"
	// MetricRequests counts (input, output) request pairs over all
	// arbitration rounds.
	MetricRequests = "requests_total"
	// MetricGrants counts grants issued by outputs; the grant/request
	// ratio MetricGrants/MetricRequests measures arbitration
	// efficiency.
	MetricGrants = "grants_total"
	// MetricRounds counts arbitration rounds over the run.
	MetricRounds = "rounds_total"
	// MetricActiveSlots counts slots in which the arbiter had any
	// queued cell to consider; MetricRounds/MetricActiveSlots is the
	// Figure 5 convergence metric.
	MetricActiveSlots = "active_slots_total"
	// MetricHops counts fabric copies admitted to a node over an
	// inter-stage link.
	MetricHops = "fabric_hops_total"
	// MetricDrops counts fabric copies lost to a full inter-stage
	// link, one per leaf.
	MetricDrops = "fabric_drops_total"
)

// Fleet metric names registered by the distributed-sweep coordinator
// (internal/dsweep), one registry per sweep. The counters make the
// crash-recovery path auditable: a chaos run's kills, expiries and
// re-leases must all be visible here, and the chaos battery asserts
// they are.
const (
	// MetricFleetWorkersJoined counts workers that completed the hello
	// handshake.
	MetricFleetWorkersJoined = "dsweep_workers_joined_total"
	// MetricFleetWorkersLost counts connections that dropped before
	// the coordinator sent Done (crash, kill -9, network loss).
	MetricFleetWorkersLost = "dsweep_workers_lost_total"
	// MetricFleetWorkersConnected gauges the currently connected
	// workers.
	MetricFleetWorkersConnected = "dsweep_workers_connected"
	// MetricFleetLeasesGranted counts point leases handed to workers,
	// including re-leases.
	MetricFleetLeasesGranted = "dsweep_leases_granted_total"
	// MetricFleetLeasesExpired counts leases reclaimed by heartbeat
	// timeout.
	MetricFleetLeasesExpired = "dsweep_leases_expired_total"
	// MetricFleetLeasesReclaimed counts every lease bounced back to
	// pending: expiries, connection drops and rejected results.
	MetricFleetLeasesReclaimed = "dsweep_leases_reclaimed_total"
	// MetricFleetResultsMerged counts results accepted into the table.
	MetricFleetResultsMerged = "dsweep_results_merged_total"
	// MetricFleetResultsRejected counts result frames refused —
	// checksum mismatch, undecodable JSON, or grid coordinates that
	// contradict the lease. Rejected results are never merged.
	MetricFleetResultsRejected = "dsweep_results_rejected_total"
	// MetricFleetStaleFrames counts heartbeat/result frames for leases
	// that no longer exist — a zombie worker outliving its lease. Stale
	// frames are dropped, not merged.
	MetricFleetStaleFrames = "dsweep_stale_frames_total"
	// MetricFleetDuplicateClaims counts claims from a worker already
	// holding a lease, a protocol violation.
	MetricFleetDuplicateClaims = "dsweep_duplicate_claims_total"
	// MetricFleetPointsPreloaded counts grid points loaded from the
	// resume dir instead of leased.
	MetricFleetPointsPreloaded = "dsweep_points_preloaded_total"
)

// OccHWM returns the per-port occupancy high-water-mark gauge name,
// e.g. "occ_hwm_port_03": the largest number of buffered payloads the
// port ever held (the peak of the paper's queue-size metric).
func OccHWM(port int) string { return fmt.Sprintf("occ_hwm_port_%02d", port) }
