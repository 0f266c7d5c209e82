package shard

import (
	"testing"

	"stronglin/internal/history"
	"stronglin/internal/prim"
	"stronglin/internal/sim"
	"stronglin/internal/spec"
)

// Live epoch rollover tests: RolloverEpoch rewinds the announce count —
// the 2^48 per-object write budget — without stopping traffic. The positive
// checks pin the protocol's mechanism (the generation bump forcing every
// spanning validation window to miss, crash adoption, the generation-wrap
// arithmetic); the negative twin re-runs the spanning-window schedule
// against a rollover WITHOUT the generation bump and demands that the
// window validate, pinning why the bump is load-bearing.

// opRollover models RolloverEpoch as a read for the checked histories: the
// rollover itself is abstract-state-invariant maintenance (no counter value
// changes), so the operation's observable effect is the validated read it is
// composed with — the migrator's own combine must carry the same
// strong-linearizability guarantee as everyone else's.
func opRollover(c *Counter, minAnnounces int64) sim.Op {
	return sim.Op{
		Name: "rollover+read()",
		Spec: spec.MkOp(spec.MethodRead),
		Run: func(t prim.Thread) string {
			c.RolloverEpoch(t, minAnnounces)
			return spec.RespInt(c.Read(t))
		},
	}
}

// opRolloverRaw responds with the wound-back announce count (or "refused"),
// for schedules that assert on the rollover itself rather than on a
// composed read.
func opRolloverRaw(c *Counter, minAnnounces int64) sim.Op {
	return sim.Op{
		Name: "rollover()",
		Spec: spec.MkOp(spec.MethodRead),
		Run: func(t prim.Thread) string {
			wound, ok := c.RolloverEpoch(t, minAnnounces)
			if !ok {
				return "refused"
			}
			return spec.RespInt(wound)
		},
	}
}

func TestEpochRolloverSequentialSolo(t *testing.T) {
	w := sim.NewSoloWorld()
	th := sim.SoloThread(0)
	c := NewCounter(w, "c", 2, 2)

	for i := 0; i < 5; i++ {
		c.Inc(th)
	}
	if got := c.EpochAnnounces(th); got != 5 {
		t.Fatalf("announces before rollover = %d, want 5", got)
	}
	// Floor: a rollover below minAnnounces is refused outright.
	if wound, ok := c.RolloverEpoch(th, 100); ok || wound != 0 {
		t.Fatalf("rollover below floor ran: wound=%d ok=%v", wound, ok)
	}
	if got := c.EpochGeneration(th); got != 0 {
		t.Fatalf("refused rollover moved the generation to %d", got)
	}

	wound, ok := c.RolloverEpoch(th, 5)
	if !ok || wound != 5 {
		t.Fatalf("rollover at floor: wound=%d ok=%v, want 5 true", wound, ok)
	}
	if got := c.EpochAnnounces(th); got != 0 {
		t.Fatalf("announces after rollover = %d, want 0", got)
	}
	if got := c.EpochGeneration(th); got != 1 {
		t.Fatalf("generation after rollover = %d, want 1", got)
	}
	if got := c.PressureRaised(th); got != 0 {
		t.Fatalf("phantom pressure after rollover: %d", got)
	}
	// The counter's value is untouched — only the epoch was re-based.
	if got := c.Read(th); got != 5 {
		t.Fatalf("read after rollover = %d, want 5", got)
	}
	c.Inc(th)
	if got, want := c.Read(th), int64(6); got != want {
		t.Fatalf("read after post-rollover inc = %d, want %d", got, want)
	}
	if got := c.EpochAnnounces(th); got != 1 {
		// Exactly the one post-rollover inc: reads never announce.
		t.Fatalf("announces after post-rollover inc = %d, want 1", got)
	}
}

// runSpanningReaderWindow runs the crafted schedule of
// TestEpochRolloverReaderWindowCrafted with migrate as proc 2's operation: a
// reader opens its validation window before the rollover and closes it
// after, at a moment when the POST-rollover announce count has climbed back
// to the exact pre-rollover value the reader snapshotted. migrateSteps is the
// migrator's step count, invoke included. It returns the responses by OpID
// (0, 1: proc 0's incs; 2: the read; 3: the migrator) and the counter.
func runSpanningReaderWindow(t *testing.T, migrate func(*Counter) sim.Op, migrateSteps int) (map[int]string, *Counter) {
	t.Helper()
	var c *Counter
	setup := func(w *sim.World) []sim.Program {
		c = NewCounter(w, "c", 3, 2)
		return []sim.Program{
			{opInc(c), opInc(c)}, // proc 0: one inc each side of the rollover
			{opRead(c)},          // proc 1: the spanning reader
			{migrate(c)},         // proc 2: the migrator
		}
	}
	// Grants: inc = invoke + shard XADD + announce = 3. read (2 shards) =
	// invoke + epoch + collect x2 + closing epoch = 5 clean, +3 per failed
	// round.
	window := []int{
		0, 0, 0, // inc#1 completes: announces=1 (gen 0)
		1, 1, 1, // reader: invoke, epoch snapshot (gen0|1), collect shard 0
	}
	for i := 0; i < migrateSteps; i++ {
		window = append(window, 2) // migrator: the full rollover
	}
	window = append(window,
		0, 0, 0, // inc#2 completes: announces back to 1
		// reader resumes: collect shard 1, closing epoch read — bytewise the
		// announce count matches its snapshot; only a generation can differ.
	)
	policy := func(v sim.PolicyView) int {
		if v.Step < len(window) {
			for _, p := range v.Enabled {
				if p == window[v.Step] {
					return p
				}
			}
		}
		return v.Enabled[0]
	}
	exec, err := sim.RunToCompletion(3, setup, policy, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !exec.Complete {
		t.Fatalf("execution incomplete:\n%v", exec.Events)
	}
	return exec.Responses(), c
}

// TestEpochRolloverReaderWindowCrafted pins the generation bump doing its
// job mid-flight: a bare rewind would validate the spanning reader's window
// (the ABA); the generation field forces the exact-value comparison to miss,
// and the reader retries onto a consistent post-rollover collect. The twin
// below runs the same schedule without the bump and demands the ABA.
func TestEpochRolloverReaderWindowCrafted(t *testing.T) {
	// rollover = invoke + epoch read + arm + slot flush + epoch read + rewind.
	resp, c := runSpanningReaderWindow(t, func(c *Counter) sim.Op { return opRolloverRaw(c, 1) }, 6)
	if resp[2] != "2" { // both incs, never a torn sum
		t.Fatalf("spanning read = %q, want 2", resp[2])
	}
	if resp[3] != "1" { // rollover wound back the single pre-arm announce
		t.Fatalf("rollover wound = %q, want 1", resp[3])
	}
	if got := c.HelpStats().Retries; got < 1 {
		t.Fatalf("spanning window validated without a retry (retries=%d) — generation bump missing?", got)
	}
}

// buggyRolloverNoGen is the negative twin: the identical arm/flush/rewind
// sequence with the generation bump omitted — the rewind lands the epoch on
// bytewise-identical values once the announce count climbs back. Kept in the
// test file so the shipped rebaseEpoch cannot accidentally lose the bump
// without this test noticing the twin and the real one diverging.
func buggyRolloverNoGen(t prim.Thread, c *Counter) {
	c.epoch.FetchAddInt(t, epochCutoverBit)
	c.help.slot.WriteAny(t, &helpDeposit{epoch: -1})
	cur := c.epoch.FetchAddInt(t, 0)
	c.epoch.FetchAddInt(t, -epochAnnounces(cur)-epochCutoverBit)
}

// TestEpochRolloverNoGenerationTwinValidatesSpanningWindow runs
// TestEpochRolloverReaderWindowCrafted's schedule with buggyRolloverNoGen as
// the migrator: the spanning window closes on the bytewise-equal epoch and
// validates with no retry, returning the collect that missed inc#2 — the ABA
// the shipped rollover's generation bump turns into a retry.
func TestEpochRolloverNoGenerationTwinValidatesSpanningWindow(t *testing.T) {
	twin := func(c *Counter) sim.Op {
		return sim.Op{
			Name: "rollover-nogen()",
			Spec: spec.MkOp(spec.MethodRead),
			Run: func(t prim.Thread) string {
				buggyRolloverNoGen(t, c)
				return spec.RespOK
			},
		}
	}
	// rollover = invoke + arm + slot flush + epoch read + rewind.
	resp, c := runSpanningReaderWindow(t, twin, 5)
	if got := c.HelpStats().Retries; got != 0 {
		t.Fatalf("bump-less rollover: spanning window retried %d times, want 0 (the ABA validates)", got)
	}
	if resp[2] != "1" { // shard 0 read before inc#2, shard 1 empty
		t.Fatalf("bump-less rollover: spanning read = %q, want the pre-inc#2 collect 1", resp[2])
	}
}

// TestEpochRolloverKilledMigratorCompleted injects the migrator crash: a
// rollover killed immediately after its ARM step leaves the cutover bit set
// and the epoch otherwise live — writes keep announcing, reads keep
// validating — and a second RolloverEpoch call (the restarted migrator)
// adopts the armed cutover, skipping the floor, and completes it.
func TestEpochRolloverKilledMigratorCompleted(t *testing.T) {
	setup := func(w *sim.World) []sim.Program {
		c := NewCounter(w, "c", 4, 2)
		gen := sim.Op{
			Name: "generation()",
			Spec: spec.MkOp(spec.MethodRead),
			Run:  func(t prim.Thread) string { return spec.RespInt(c.EpochGeneration(t)) },
		}
		return []sim.Program{
			{opInc(c), opInc(c)},   // proc 0
			{opRead(c), gen},       // proc 1
			{opRolloverRaw(c, 1)},  // proc 2: killed mid-rollover
			{opRolloverRaw(c, 99)}, // proc 3: restart — floor 99 would refuse a
			// fresh rollover; adopting the armed one must ignore it
		}
	}
	window := []int{
		0, 0, 0, // inc#1: announces = 1
		2, 2, 2, // migrator: invoke, epoch read, ARM — then killed
		3, 3, 3, 3, 3, // restart: invoke, epoch read (bit set -> adopt), flush, read, rewind
		0, 0, 0, // inc#2 on the fresh generation
		1, 1, 1, 1, 1, // reader: clean validated collect
		1, 1, // generation probe: invoke + epoch read
	}
	base := func(v sim.PolicyView) int {
		if v.Step < len(window) {
			for _, p := range v.Enabled {
				if p == window[v.Step] {
					return p
				}
			}
		}
		return v.Enabled[0]
	}
	exec, err := sim.RunToCompletion(4, setup, sim.FaultedPolicy(4, base, sim.Kill(2, 3)), 200)
	if err != nil {
		t.Fatal(err)
	}
	if exec.Complete {
		t.Fatal("execution reported complete despite the killed migrator")
	}
	resp := exec.Responses()
	if _, pending := resp[4]; pending { // OpID 4 = killed migrator's rollover
		t.Fatalf("killed rollover has a response: %q", resp[4])
	}
	if resp[5] != "1" { // restart wound back inc#1's announce
		t.Fatalf("restarted rollover = %q, want wound 1", resp[5])
	}
	if resp[2] != "2" { // reader after both incs
		t.Fatalf("post-restart read = %q, want 2", resp[2])
	}
	if resp[3] != "1" { // exactly one completed rollover
		t.Fatalf("generation = %q, want 1", resp[3])
	}
}

// TestEpochRolloverGenerationWrap exercises the generation field's modulus:
// 64 rollovers wrap the field back to 0 through the carry that would
// otherwise land on the cutover bit, leaving announces, pressure, and the
// bit itself all clean.
func TestEpochRolloverGenerationWrap(t *testing.T) {
	w := sim.NewSoloWorld()
	th := sim.SoloThread(0)
	c := NewCounter(w, "c", 2, 2)

	for g := int64(0); g < epochGenCount; g++ {
		if got := c.EpochGeneration(th); got != g {
			t.Fatalf("generation before rollover %d = %d", g, got)
		}
		c.Inc(th)
		if wound, ok := c.RolloverEpoch(th, 1); !ok || wound != 1 {
			t.Fatalf("rollover %d: wound=%d ok=%v", g, wound, ok)
		}
	}
	if got := c.EpochGeneration(th); got != 0 {
		t.Fatalf("generation after wrap = %d, want 0", got)
	}
	if got := c.EpochAnnounces(th); got != 0 {
		t.Fatalf("announces after wrap = %d, want 0", got)
	}
	if got := c.PressureRaised(th); got != 0 {
		t.Fatalf("pressure after wrap = %d, want 0", got)
	}
	if raw := c.epoch.FetchAddInt(th, 0); raw&epochCutoverBit != 0 || raw < 0 {
		t.Fatalf("epoch register dirty after wrap: %#x", raw)
	}
	if got := c.Read(th); got != epochGenCount {
		t.Fatalf("count after wrap = %d, want %d", got, epochGenCount)
	}
}

// TestEpochRolloverStrongLin model-checks the rollover exhaustively in two
// 2-process games (the 3-process product blows past any workable node
// budget; the crafted-window tests above cover the mixed case). In each,
// the migrator's rollover is composed with its own validated read, so every
// schedule must produce a strongly linearizable counter history — including
// those where the rollover's arm, flush, and rewind steps split the other
// process's validation window.
func TestEpochRolloverStrongLin(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration")
	}
	t.Run("writer-vs-migrator", func(t *testing.T) {
		verifySL(t, 2, func(w *sim.World) []sim.Program {
			c := NewCounter(w, "c", 2, 2)
			return []sim.Program{
				{opInc(c), opInc(c)},
				{opRollover(c, 0)},
			}
		}, spec.MonotonicCounter{})
	})
	t.Run("reader-vs-migrator", func(t *testing.T) {
		// The read's retry rounds branch harder than the writer game: it
		// needs a larger node budget than Verify's default.
		v, err := history.Verify(2, func(w *sim.World) []sim.Program {
			c := NewCounter(w, "c", 2, 2)
			return []sim.Program{
				{opInc(c), opRead(c)},
				{opRollover(c, 0)},
			}
		}, spec.MonotonicCounter{}, &sim.ExploreOptions{MaxNodes: 3_000_000, MaxDepth: 4096}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Linearizable {
			t.Fatalf("linearizability violated: %s", v.LinViolation)
		}
		if !v.StrongLin.Ok {
			t.Fatalf("strong linearizability violated: %v", v.StrongLin.Counterexample)
		}
	})
}

// TestEpochRolloverMaxRegisterAndGSet covers the other two objects' exported
// rollover surface on the same solo scenario: value preserved, generation
// bumped, announce budget renewed.
func TestEpochRolloverMaxRegisterAndGSet(t *testing.T) {
	w := sim.NewSoloWorld()
	th := sim.SoloThread(0)

	m := NewMaxRegister(w, "m", 2, 2)
	m.WriteMax(th, 7)
	if wound, ok := m.RolloverEpoch(th, 1); !ok || wound != 1 {
		t.Fatalf("max register rollover: wound=%d ok=%v", wound, ok)
	}
	if got := m.ReadMax(th); got != 7 {
		t.Fatalf("max after rollover = %d, want 7", got)
	}
	if got := m.EpochGeneration(th); got != 1 {
		t.Fatalf("max register generation = %d, want 1", got)
	}

	g := NewGSet(w, "g", 2, 2)
	g.Add(th, 1)
	if wound, ok := g.RolloverEpoch(th, 1); !ok || wound != 1 {
		t.Fatalf("gset rollover: wound=%d ok=%v", wound, ok)
	}
	if !g.Has(th, 1) || g.Has(th, 0) {
		t.Fatal("gset membership changed across rollover")
	}
	if got := g.EpochGeneration(th); got != 1 {
		t.Fatalf("gset generation = %d, want 1", got)
	}
}
