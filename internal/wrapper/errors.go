package wrapper

import "errors"

// The runtime error taxonomy. Every failure a caller can provoke with input
// — as opposed to an internal invariant breaking — is classified under one
// of these sentinels, so operators can route outcomes with errors.Is:
//
//	ErrNoMatch          the wrapper parsed the page but found no extraction
//	ErrMalformedInput   persisted wrapper or fleet JSON is unusable
//	ErrUnknownKey       the fleet has no wrapper registered for the site
//	machine.ErrBudget   a construction exceeded its state budget
//	machine.ErrDeadline a construction or extraction ran out of time
//	extract.ErrAmbiguous a refresh sample conflicts with the wrapper
//
// ErrInternal never classifies caller mistakes: it is the resilex facade's
// recover() backstop wrapping a panic that escaped the library's own
// invariants, converted to an error so a serving process survives it.
var (
	// ErrNoMatch is the canonical name for ErrNotExtracted: the page
	// tokenized fine but the wrapper's expression does not parse it.
	ErrNoMatch = ErrNotExtracted

	// ErrMalformedInput classifies persisted wrapper/fleet JSON that does
	// not decode. A page is never malformed input: a truncated, garbled or
	// empty page the expression does not parse is ErrNoMatch.
	ErrMalformedInput = errors.New("wrapper: malformed input")

	// ErrUnknownKey is returned by Fleet.ExtractFrom for unregistered sites.
	ErrUnknownKey = errors.New("wrapper: no wrapper registered for site")

	// ErrInternal wraps a recovered panic from the extraction pipeline.
	ErrInternal = errors.New("wrapper: internal error (recovered panic)")
)
