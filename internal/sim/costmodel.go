package sim

// CostModel holds the micro-op and latency constants of the simulated
// platform. The software-path costs come from measurements quoted in the
// paper (§5.2): malloc and free average 69 and 37 x86 micro-ops, and a
// software hash map walk averages 90.66 micro-ops, all assuming cache
// hits. The accelerator latencies come from §5.1: the hardware hash table
// answers in 1 cycle after the hash computation, the hardware heap manager
// in 1 cycle, and the synthesized string accelerator needs at most 3
// cycles per 64-character block at 2 GHz.
//
// A zero CostModel is not useful; call DefaultCostModel.
type CostModel struct {
	// --- Software baseline costs, in micro-ops. ---

	// HashWalkBase is the fixed cost of entering the software hash map
	// lookup path (hash computation, bucket indexing, call overhead).
	HashWalkBase float64
	// HashWalkPerProbe is charged for each hash table entry examined
	// while chasing the collision chain.
	HashWalkPerProbe float64
	// HashWalkPerKeyByte is charged per key byte compared.
	HashWalkPerKeyByte float64
	// HashInsertExtra is the additional cost of an insertion over a
	// lookup (link maintenance, size bookkeeping, possible growth check).
	HashInsertExtra float64
	// HashResizePerSlot is charged per slot when the table grows.
	HashResizePerSlot float64

	// MallocUops is the average software malloc cost (paper: 69).
	MallocUops float64
	// FreeUops is the average software free cost (paper: 37).
	FreeUops float64
	// KernelAllocUops is the cost of falling through to an OS-level
	// allocation (mmap/brk path) when a slab has to be refilled.
	KernelAllocUops float64

	// StringFixed is the call/setup overhead of an SSE-optimized string
	// routine; StringPerChunk is charged per 16-byte SSE chunk touched.
	StringFixed    float64
	StringPerChunk float64
	// StringChunkBytes is the SSE chunk width in bytes.
	StringChunkBytes int

	// RegexCompileFixed and RegexCompilePerState cost the one-time FSM
	// construction; RegexFixed and RegexPerChar cost the interpreted
	// character-at-a-time scan (PCRE-style, §4.5).
	RegexCompileFixed    float64
	RegexCompilePerState float64
	RegexFixed           float64
	RegexPerChar         float64

	// RefCountUops is charged per reference count increment/decrement
	// when hardware reference counting (§3) is disabled.
	RefCountUops float64
	// TypeCheckUops is charged per dynamic type check when checked-load
	// hardware (§3) is disabled.
	TypeCheckUops float64
	// ICHitUops is the cost of a hash map access that inline caching or
	// hash map inlining (§3) specialized into an offset access.
	ICHitUops float64

	// --- Accelerator costs, in cycles per invocation. ---

	// HTHashCycles is the hash-computation latency preceding the 1-cycle
	// hardware hash table lookup.
	HTHashCycles float64
	// HTLookupCycles is the parallel probe-window access (§5.1: constant
	// 1 cycle for 4 consecutive entries accessed in parallel).
	HTLookupCycles float64
	// HMCycles is the hardware heap manager's free-list pop/push latency.
	HMCycles float64
	// StrInvokeCycles is the stringop issue overhead; StrBlockCycles is
	// charged per block of the string accelerator's BlockBytes subject
	// bytes (paper: at most 3 cycles per 64-character block).
	StrInvokeCycles float64
	StrBlockCycles  float64
	// ReuseLookupCycles is the content reuse table probe latency.
	ReuseLookupCycles float64
	// HVWordCycles is charged per hint-vector word the shadow regexp
	// consults (the count-leading-zeros stepping).
	HVWordCycles float64

	// --- Software-handler costs for accelerator fallback paths. ---

	// HTWritebackUops is the software cost of writing one dirty hash
	// table entry back to the map's ordered table.
	HTWritebackUops float64
	// HMMissUops is the software handler cost when hmmalloc finds an
	// empty hardware free list and pulls the next block from memory.
	HMMissUops float64
	// HMSpillUops is the software cost of linking one overflowed hmfree
	// block back into the memory free list (a single pointer store).
	HMSpillUops float64
	// FlushPerEntryUops is the context-switch cost per flushed
	// accelerator entry (hmflush / hash table flush).
	FlushPerEntryUops float64

	// --- Pipeline model. ---

	// IPC is the sustained micro-ops per cycle of the modeled 4-wide
	// out-of-order server core on these front-end-bound workloads.
	IPC float64

	// --- Energy model (picojoules). ---

	// EnergyPerUop is the average core energy per executed micro-op; the
	// paper uses dynamic instruction reduction as the energy proxy, so
	// only the ratio between this and the accelerator energies matters.
	EnergyPerUop float64
	// EnergyPerAccelCycle is charged per cycle spent inside any
	// accelerator datapath (CACTI-derived structures are small: the four
	// accelerators total 0.22 mm^2, 0.89% of a Nehalem-class core).
	EnergyPerAccelCycle [numAccelKinds]float64
}

// DefaultCostModel returns the constants used throughout the evaluation.
// Software-path numbers marked "paper" are taken directly from the text;
// the remaining constants are calibrated so that aggregate behaviour
// (execution-time shares, Fig. 5; improvement totals, Figs. 14–15)
// reproduces the paper's reported shape.
func DefaultCostModel() CostModel {
	m := CostModel{
		HashWalkBase:       38,
		HashWalkPerProbe:   22,
		HashWalkPerKeyByte: 1.25,
		HashInsertExtra:    24,
		HashResizePerSlot:  6,

		MallocUops:      69, // paper §5.2
		FreeUops:        37, // paper §5.2
		KernelAllocUops: 900,

		StringFixed:      28,
		StringPerChunk:   4,
		StringChunkBytes: 16,

		RegexCompileFixed:    400,
		RegexCompilePerState: 30,
		RegexFixed:           46,
		RegexPerChar:         7.5,

		RefCountUops:  2.0,
		TypeCheckUops: 2.0,
		ICHitUops:     9,

		HTHashCycles:      2,
		HTLookupCycles:    1, // paper §5.1
		HMCycles:          1, // paper §5.1
		StrInvokeCycles:   2,
		StrBlockCycles:    3, // paper §5.1: <=3 cycles per 64-char block
		ReuseLookupCycles: 1,
		HVWordCycles:      1,

		HTWritebackUops:   28,
		HMMissUops:        35,
		HMSpillUops:       2,
		FlushPerEntryUops: 4,

		IPC: 1.55,

		EnergyPerUop: 100,
	}
	m.EnergyPerAccelCycle[AccelHashTable] = 18
	m.EnergyPerAccelCycle[AccelHeapMgr] = 9
	m.EnergyPerAccelCycle[AccelString] = 35
	m.EnergyPerAccelCycle[AccelRegex] = 8
	return m
}

// HashWalkCost returns the software hash map walk cost for a lookup that
// examined probes entries and compared keyBytes bytes of key material in
// total. With the calibrated constants, the workload-average cost matches
// the paper's 90.66 micro-ops.
func (m *CostModel) HashWalkCost(probes int, keyBytes int) float64 {
	if probes < 1 {
		probes = 1
	}
	return m.HashWalkBase + float64(probes)*m.HashWalkPerProbe + float64(keyBytes)*m.HashWalkPerKeyByte
}

// StringCost returns the SSE-optimized software cost of a string routine
// touching n subject bytes.
func (m *CostModel) StringCost(n int) float64 {
	chunks := (n + m.StringChunkBytes - 1) / m.StringChunkBytes
	if chunks < 1 {
		chunks = 1
	}
	return m.StringFixed + float64(chunks)*m.StringPerChunk
}

// RegexScanCost returns the software character-at-a-time scan cost over n
// input bytes.
func (m *CostModel) RegexScanCost(n int) float64 {
	return m.RegexFixed + float64(n)*m.RegexPerChar
}

// Cycles converts a micro-op count into core cycles through the pipeline
// throughput model.
func (m *CostModel) Cycles(uops float64) float64 {
	if m.IPC <= 0 {
		return uops
	}
	return uops / m.IPC
}
