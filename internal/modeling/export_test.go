package modeling

// Hooks for the external test package (package modeling_test), whose
// tests drive the fitter through internal/workload.
var (
	ReferenceOf   = referenceOf
	SameModelInfo = sameModelInfo
	SameFolds     = sameFolds
)
