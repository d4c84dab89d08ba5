// Package ignoresyntax seeds malformed suppression directives and one
// naming no rule: all three must be reported as ignore-syntax diagnostics
// rather than silently accepted.
package ignoresyntax

//lint:ignore
var missingEverything int

//lint:ignore unchecked-err
var missingReason float64

//lint:ignore no-such-rule the rule this names does not exist
var unknownRule int
