// Package sim provides the cycle, micro-op, and energy accounting model
// that underlies the trace-driven simulation methodology of the paper
// "Architectural Support for Server-Side PHP Processing" (ISCA 2017).
//
// The paper evaluates its accelerators with an in-house trace-driven
// simulator configured like a 4-wide out-of-order Intel Xeon, using
// dynamic micro-op counts as the primary cost currency and instruction
// reduction as the proxy for energy savings (§5.1–5.2). This package
// reproduces that methodology: runtime operations report micro-ops to a
// Meter, which attributes them to leaf functions and activity categories,
// converts them to cycles through a pipeline throughput model, and charges
// energy per micro-op plus per-accelerator-access energies.
package sim

import "encoding/json"

// Category classifies a leaf function (or a slice of its work) into the
// activity groups used throughout the paper's analysis (Figs. 4, 5, 15).
type Category uint8

const (
	// CatOther covers JIT-compiled application code and VM functions that
	// do not belong to the four accelerated activities.
	CatOther Category = iota
	// CatHash is hash map access work (§4.2).
	CatHash
	// CatHeap is memory allocation and deallocation work (§4.3).
	CatHeap
	// CatString is string searching/modifying/copying work (§4.4).
	CatString
	// CatRegex is regular expression processing work (§4.5).
	CatRegex
	// CatTypeCheck is dynamic type-check abstraction overhead (§3).
	CatTypeCheck
	// CatRefCount is reference-counting abstraction overhead (§3).
	CatRefCount
	// CatKernel is kernel time from expensive memory allocation and
	// deallocation calls to the operating system (§3).
	CatKernel

	numCategories
)

// NumCategories is the number of activity categories, for dense
// per-category vectors (CategoryVec) indexed by Category.
const NumCategories = int(numCategories)

// String returns the short name used in figures and reports.
func (c Category) String() string {
	switch c {
	case CatOther:
		return "other"
	case CatHash:
		return "hash"
	case CatHeap:
		return "heap"
	case CatString:
		return "string"
	case CatRegex:
		return "regex"
	case CatTypeCheck:
		return "typecheck"
	case CatRefCount:
		return "refcount"
	case CatKernel:
		return "kernel"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the category as its short name, the spelling of
// every serialized profile row.
func (c Category) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// Categories lists every category in presentation order.
func Categories() []Category {
	return []Category{
		CatOther, CatHash, CatHeap, CatString, CatRegex,
		CatTypeCheck, CatRefCount, CatKernel,
	}
}

// AccelKind identifies one of the four proposed accelerators, for
// per-accelerator energy and cycle attribution (Fig. 15).
type AccelKind uint8

const (
	AccelHashTable AccelKind = iota
	AccelHeapMgr
	AccelString
	AccelRegex

	numAccelKinds
)

// String returns the accelerator's name as used in the paper.
func (k AccelKind) String() string {
	switch k {
	case AccelHashTable:
		return "hash-table"
	case AccelHeapMgr:
		return "heap-manager"
	case AccelString:
		return "string-accelerator"
	case AccelRegex:
		return "regexp-accelerator"
	default:
		return "unknown"
	}
}

// AccelKinds lists all accelerator kinds in presentation order.
func AccelKinds() []AccelKind {
	return []AccelKind{AccelHashTable, AccelHeapMgr, AccelString, AccelRegex}
}
