package tap

// Code is the outcome of one operation. Its numeric value is the
// vdom-trace/v1 wire encoding and String its JSONL name; both are frozen —
// append new codes, never renumber. Replay compares codes, not messages,
// so error text can evolve without breaking golden traces.
type Code uint8

// The outcome codes. Every code between CodeOK and CodeOther is carried by
// exactly one domain sentinel (NewOutcome).
const (
	CodeOK Code = iota
	CodeSigsegv
	CodeBlocked
	CodeNoVDR
	CodeDenied
	CodeReassign
	CodeFreedVdom
	CodeNoResources
	CodeExhausted
	CodeDegraded
	CodeNoFreeKey
	CodeUnknownKey
	CodeBadRange
	CodeNoMapping
	CodeUnknownDomain
	CodeNoASID
	CodeDomainCapacity

	// CodeOther is any error that carries no outcome.
	CodeOther Code = 255
)

// Class is what an outcome means to the caller.
type Class uint8

const (
	// ClassNone is the class of CodeOK and CodeOther.
	ClassNone Class = iota
	// ClassDenied: protection refused the access or the op.
	ClassDenied
	// ClassPushback: a resource (pdoms, ASIDs, keys, domain capacity) ran
	// out; the caller may tolerate it, retry, or degrade.
	ClassPushback
	// ClassMisuse: the caller's arguments are wrong.
	ClassMisuse
)

// outcomes declares every code's name and class, and its rank: when an
// error tree holds several outcomes, CodeOf returns the lowest-ranked, so
// the specific cause outranks the generic SIGSEGV wrapper around it and a
// degraded retry outranks the pushback it retried. Undefined codes have
// no name.
var outcomes = [256]struct {
	name  string
	class Class
	rank  uint8
}{
	CodeOK:             {"ok", ClassNone, 0},
	CodeDenied:         {"denied", ClassDenied, 1},
	CodeNoVDR:          {"no-vdr", ClassDenied, 2},
	CodeReassign:       {"reassign", ClassMisuse, 3},
	CodeFreedVdom:      {"freed-vdom", ClassDenied, 4},
	CodeDegraded:       {"degraded", ClassPushback, 5},
	CodeExhausted:      {"exhausted", ClassPushback, 6},
	CodeNoResources:    {"no-resources", ClassPushback, 7},
	CodeNoFreeKey:      {"no-free-key", ClassPushback, 8},
	CodeUnknownKey:     {"unknown-vkey", ClassMisuse, 9},
	CodeUnknownDomain:  {"unknown-domain", ClassMisuse, 10},
	CodeNoASID:         {"no-asid", ClassPushback, 11},
	CodeDomainCapacity: {"domain-capacity", ClassPushback, 12},
	CodeBlocked:        {"blocked", ClassDenied, 13},
	CodeBadRange:       {"bad-range", ClassMisuse, 14},
	CodeNoMapping:      {"no-mapping", ClassMisuse, 15},
	CodeSigsegv:        {"sigsegv", ClassDenied, 16},
	CodeOther:          {"other", ClassNone, 255},
}

// Valid reports whether c is a defined code.
func (c Code) Valid() bool { return outcomes[c].name != "" }

// String returns the code's JSONL name ("" for an undefined code, which
// neither CodeOf nor the trace decoder produces).
func (c Code) String() string { return outcomes[c].name }

// outcome is a domain sentinel: an error that carries its Code.
type outcome struct {
	code Code
	msg  string
}

func (o *outcome) Error() string { return o.msg }

// NewOutcome returns a new sentinel error with text msg that carries c.
// Layers declare their sentinels with it and wrap them as usual;
// errors.Is against a sentinel keeps working.
func NewOutcome(c Code, msg string) error { return &outcome{c, msg} }

// CodeOf returns the outcome of err: CodeOK for nil, else the
// lowest-ranked code any sentinel in err's tree carries, else CodeOther.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	return walk(err, CodeOther)
}

// walk returns the lowest-ranked of best and every code in err's tree.
func walk(err error, best Code) Code {
	if o, ok := err.(*outcome); ok && outcomes[o.code].rank < outcomes[best].rank {
		best = o.code
	}
	switch u := err.(type) {
	case interface{ Unwrap() error }:
		return walk(u.Unwrap(), best)
	case interface{ Unwrap() []error }:
		for _, e := range u.Unwrap() {
			best = walk(e, best)
		}
	}
	return best
}

// ClassOf returns the class of err's outcome.
func ClassOf(err error) Class { return outcomes[CodeOf(err)].class }
