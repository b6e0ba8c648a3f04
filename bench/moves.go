package main

// move is the prediction written down for a per-layer metric before
// measuring: which end-to-end metrics it should move, and on which
// workloads. The zero move marks a reading of the harness or of the
// modelled machine, and an invariant: nothing is predicted to follow
// it. The traced run prints the prediction beside the value; the tests
// hold the table to BENCHMARK.json. README.md defines the metrics and
// leaves the predictions to this table.
type move struct {
	metrics   []string
	workloads []string
}

var (
	wall      = []string{"wall_s"}
	wallAlloc = []string{"wall_s", "alloc_mb"}

	paperGrid   = []string{"paper-grid"}
	psim64      = []string{"psim-64"}
	bothSims    = []string{"psim-64", "paper-grid"}
	conformance = []string{"conformance"}
	serviceMix  = []string{"service-mix"}
	simulating  = []string{"paper-grid", "psim-64", "service-mix"}
	everywhere  = []string{"paper-grid", "psim-64", "conformance", "service-mix"}
)

var layerMoves = map[string]move{
	"sim.events":            {wall, psim64},
	"sim.events_per_kcycle": {wall, psim64}, // the measure of a park/wake rewrite
	"sim.event_ns":          {wall, bothSims},

	"machine.run_share":      {wall, simulating},
	"machine.new_share":      {wall, simulating},
	"machine.checksum_share": {wall, simulating},
	"machine.sim_mcycles":    {}, // simulated time: must not move at an unchanged seed
	"machine.ns_per_event":   {wall, everywhere},
	"machine.sim_mips":       {wall, everywhere},
	"machine.new_us":         {wallAlloc, conformance},
	"machine.snapshot_ms":    {wall, serviceMix},
	"machine.restore_ms":     {wall, serviceMix},
	"machine.snapshot_kb":    {wall, serviceMix},

	"cpu.instrs":        {wall, paperGrid},
	"cpu.stall_frac":    {wall, psim64},
	"cpu.instr_ns_sc1":  {wall, paperGrid},
	"cpu.instr_ns_rc":   {wall, paperGrid},
	"cpu.spin_ab_ratio": {wall, psim64}, // and nothing on paper-grid

	"cache.accesses":        {wall, paperGrid},
	"cache.hit_rate":        {wall, paperGrid},
	"cache.inval_miss_frac": {wall, psim64},
	"cache.hit_ns":          {wall, paperGrid},
	"cache.miss_ns":         {wall, paperGrid},
	"cache.inval_ns":        {wall, psim64},

	"network.msgs":                {wall, bothSims},
	"network.retry_frac":          {wall, psim64},
	"network.queue_delay_per_msg": {wall, psim64},
	"network.msg_ns":              {wall, bothSims},
	"network.hotspot_msg_ns":      {wall, psim64},

	"memory.requests":    {wall, psim64},
	"memory.invalidates": {wall, psim64},
	"memory.queued_frac": {wall, psim64},
	"memory.util_spread": {wall, psim64},
	"memory.read_ns":     {wall, psim64},
	"memory.inval_tx_ns": {wall, psim64},

	"workloads.build_share":    {wallAlloc, paperGrid},
	"workloads.validate_share": {wall, paperGrid},

	"experiments.runner_overhead_share": {wall, paperGrid},
	"experiments.rc_gain_pct":           {}, // a simulated result: must not move at all

	"litmus.share":        {wall, conformance},
	"difftest.share":      {wall, conformance},
	"compare.share":       {wall, conformance},
	"litmus.setup_us":     {wallAlloc, conformance},
	"litmus.execute_us":   {wallAlloc, conformance},
	"litmus.allowed_ms":   {wallAlloc, conformance},
	"compare.outcomes_ms": {wallAlloc, conformance},
	"compare.lattice_ms":  {wallAlloc, conformance},
	"difftest.allowed_ms": {wallAlloc, conformance},
	"difftest.check_ms":   {wallAlloc, conformance},

	"server.cold_share":         {wall, serviceMix},
	"server.hit_share":          {wall, serviceMix},
	"server.lifecycle_share":    {wall, serviceMix},
	"server.cold_overhead_frac": {wall, serviceMix},
	"server.shed":               {}, // must be 0
	"server.cold_p50_ms":        {wall, serviceMix},
	"server.hit_p50_us":         {wall, serviceMix},
	"server.hit_p99_us":         {wall, serviceMix},
	"server.hit_rps":            {wall, serviceMix},
	"server.recover_ms":         {wall, serviceMix},
	"server.drain_ms":           {wall, serviceMix},
	"server.journal_kb":         {wall, serviceMix},

	"bench.trace_overhead_frac": {}, // readings of the harness
	"bench.pass_iqr_frac":       {},
}
