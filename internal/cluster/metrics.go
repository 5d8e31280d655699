package cluster

import "odr/internal/obs"

// Canonical names of the cluster control-plane families. They follow the
// odr_<subsystem>_<noun>_<unit> convention and are held to obs.Lint by the
// master's startup gate (obs.MustLint in cmd/odrmaster) and by
// TestClusterMetricsLintClean (make metrics-check).
const (
	// NameClusterWorkers gauges the worker fleet by state (alive, draining,
	// dead).
	NameClusterWorkers = "odr_cluster_workers"
	// NameClusterPlacements counts sessions placed, by worker.
	NameClusterPlacements = "odr_cluster_placements_total"
	// NameClusterPlacementErrors counts placement queries refused because no
	// alive worker was available.
	NameClusterPlacementErrors = "odr_cluster_placement_errors_total"
	// NameClusterHeartbeats counts heartbeats accepted, by worker.
	NameClusterHeartbeats = "odr_cluster_heartbeats_total"
	// NameClusterWorkerFailures counts workers declared dead after missing
	// their heartbeat deadline.
	NameClusterWorkerFailures = "odr_cluster_worker_failures_total"
	// NameClusterDrains counts drain orders issued to workers.
	NameClusterDrains = "odr_cluster_drains_total"
	// NameClusterLoadScore gauges each worker's current placement score
	// (lower places sooner).
	NameClusterLoadScore = "odr_cluster_worker_load_score"
)

// clusterMetrics bundles the master's instrument handles (all nil-safe).
type clusterMetrics struct {
	workers         *obs.GaugeVec
	placements      *obs.CounterVec
	placementErrors *obs.Counter
	heartbeats      *obs.CounterVec
	workerFailures  *obs.Counter
	drains          *obs.Counter
	loadScore       *obs.GaugeVec
}

// registerClusterMetrics idempotently registers every cluster family in reg
// and returns the handles. Nil registry yields nil handles (no-ops).
func registerClusterMetrics(reg *obs.Registry) clusterMetrics {
	if reg == nil {
		return clusterMetrics{}
	}
	reg.SetHelp(NameClusterPlacementErrors,
		"Placement queries refused because no alive worker was available.")
	reg.SetHelp(NameClusterWorkerFailures,
		"Workers declared dead after missing their heartbeat deadline.")
	reg.SetHelp(NameClusterDrains,
		"Drain orders issued to workers (scale-down and migration).")
	return clusterMetrics{
		workers: reg.GaugeVec(NameClusterWorkers,
			"Registered workers by state.", "state"),
		placements: reg.CounterVec(NameClusterPlacements,
			"Sessions placed on each worker by the load-score policy.", "worker"),
		placementErrors: reg.Counter(NameClusterPlacementErrors),
		heartbeats: reg.CounterVec(NameClusterHeartbeats,
			"Heartbeats accepted from each worker.", "worker"),
		workerFailures: reg.Counter(NameClusterWorkerFailures),
		drains:         reg.Counter(NameClusterDrains),
		loadScore: reg.GaugeVec(NameClusterLoadScore,
			"Placement score per worker (sessions + pending + 0.1*watts + 2*dirty_ratio; lower places sooner).", "worker"),
	}
}

// RegisterClusterMetrics pre-registers the full cluster metric surface in
// reg without creating any series, so a startup lint can validate every
// family the master will ever export before the first worker registers.
// Nil-safe.
func RegisterClusterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	registerClusterMetrics(reg)
}
