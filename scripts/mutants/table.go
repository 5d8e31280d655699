package main

// table is the committed list of mutants: each breaks one claim a test
// makes, and that test must fail with the mutant applied. A row whose
// snippet no longer matches its file exactly once fails the run, so an edit
// to the code under a row makes its author update the row.
var table = []mutant{
	{
		claim: "Mul-Buf1: under ODR the renderer waits for each viewed lane's back buffer",
		file:  "internal/stream/hub.go",
		old:   "ln.buf.WaitBackFree(w, h.box.PendingLocked)",
		new:   "",
		pkg:   "./internal/stream",
		test:  "TestHubRendererWaitsForItsLane",
	},
	{
		claim: "a hub refuses RVS instead of running ODR under its name",
		file:  "internal/stream/policy.go",
		old:   `return errors.New("the hub has no RVS: the wire carries no vblank feedback")`,
		new:   "return errors.Unwrap(nil)",
		pkg:   ".",
		test:  "TestEveryPaperConfigOnBothSubstrates",
	},
	{
		claim: "the simulated send buffer tail-drops at its byte bound",
		file:  "internal/netsim/netsim.go",
		old:   "if q.capBytes > 0 && q.curBytes+size > q.capBytes {",
		new:   "if false && q.curBytes+size > q.capBytes {",
		pkg:   "./internal/experiments",
		test:  "TestNoRegCongestionRidesTheByteBound",
	},
	{
		claim: "a failed lane leaves h.lanes, so its resolution gets a new one",
		file:  "internal/stream/hublane.go",
		old:   "\t\tif l != ln {\n",
		new:   "\t\tif l != nil {\n",
		pkg:   "./internal/stream",
		test:  "TestHubFailedLaneIsReplaced",
	},
	{
		claim: "a live hub writes every frame instrument it exports",
		file:  "internal/stream/hublane.go",
		old:   "\th.ins.TilesDirty.Add(int64(dirty))\n",
		new:   "",
		pkg:   "./internal/stream",
		test:  "TestHubWritesEveryFrameInstrument",
	},
	{
		claim: "the classic soak's tile-accounting invariant sees coded tiles drift from frames × tiles",
		file:  "internal/stream/hublane.go",
		old:   "\th.ins.TilesCoded.Add(int64(tiles))\n",
		new:   "",
		pkg:   "./cmd/odrsoak",
		test:  "TestSoakModes/classic",
	},
	{
		claim: "the fan-out soak's encode-once invariant sees shared-lane encodes drift from encodes",
		file:  "internal/stream/hublane.go",
		old:   "\tln.sharedEncodes.Inc()\n",
		new:   "",
		pkg:   "./cmd/odrsoak",
		test:  "TestSoakModes/fan-out",
	},
	{
		claim: "the cluster soak's cluster-accounting invariant sees an unrecorded drain order",
		file:  "internal/cluster/master.go",
		old:   "\t\tm.met.drains.Inc()\n",
		new:   "",
		pkg:   "./cmd/odrsoak",
		test:  "TestSoakModes/cluster",
	},
	{
		claim: "a changed block of a delta tile codes in the domain whose block is shorter",
		file:  "internal/codec/payload.go",
		old:   "rcA.size < rc.size {",
		new:   "a.est < p.est {",
		pkg:   "./internal/codec",
		test:  "TestDeltaBlockKeepsTheShorterDomain",
	},
	{
		claim: "the result cache serves an entry only to the executable that wrote it",
		file:  "internal/sched/cache.go",
		old:   "e.Build != c.build || ",
		new:   "",
		pkg:   "./internal/sched",
		test:  "TestStaleBuildIsAMiss",
	},
	{
		claim: "a cell's key hashes its pipeline.Config",
		file:  "internal/sched/cache.go",
		old:   "}{c.PolicyKey, cfg})",
		new:   "}{c.PolicyKey, pipeline.Config{}})",
		pkg:   "./internal/sched",
		test:  "TestCellKeyDiscriminates",
	},
	{
		claim: "/metrics exports each histogram's count as its _count sample",
		file:  "internal/obs/promtext.go",
		old:   `promRow{suffix: "_count", value: float64(h.Count())}`,
		new:   `promRow{suffix: "_count", value: float64(h.Sum())}`,
		pkg:   "./internal/obs/scrape",
		test:  "TestDifferentialInstrumentsVsProm",
	},
}
