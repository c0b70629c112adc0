#!/bin/sh
# test-only-exports lists the exported funcs and methods declared in
# non-test files under internal/ that no non-test .go line mentions outside
# their own declaration and comments: code only its own package's tests
# keep alive. It exits 1 when it lists anything, so make ci fails on such
# an export (make test-only-exports); the match is by bare name, so a name
# shared with something that is in use hides here, and nothing listed is
# in use.
set -eu
cd "$(dirname "$0")/.."

corpus=$(mktemp)
trap 'rm -f "$corpus"' EXIT
find . -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | sed 's,//.*$,,' >"$corpus"

# Methods the standard library reaches through its own interfaces
# (fmt.Stringer, sort.Interface, heap.Interface).
std='String|Len|Less|Swap|Push|Pop'

decl='^func (\([^)]*\) )?'
found=$(grep -rnE --include='*.go' --exclude='*_test.go' "$decl[A-Z][A-Za-z0-9_]*[[(]" internal |
	while IFS= read -r line; do
		name=$(printf '%s\n' "$line" | sed -E "s/^[^:]*:[0-9]+:func (\([^)]*\) )?([A-Za-z0-9_]+).*/\2/")
		if printf '%s\n' "$name" | grep -qxE "$std"; then
			continue
		fi
		if ! grep -w -- "$name" "$corpus" | grep -qvE "$decl$name[[(]"; then
			printf '%s\n' "$line" | sed -E 's/^([^:]*:[0-9]+):func /\1: /; s/ *\{$//'
		fi
	done)
if [ -n "$found" ]; then
	printf '%s\n' "$found"
	exit 1
fi
