#!/bin/sh
# docs_check.sh PKGDIR... — the documentation gate `make docs-check`
# runs (the Makefile lists the package directories). Five passes, all
# of which must come back clean:
#
# 1. Doc comments: fail if an exported top-level identifier in any of
#    the given package directories has no doc comment. Exported means a
#    func/type/const/var declaration at column 0 whose name starts with
#    an upper-case letter; documented means the preceding line is a
#    comment (the line directly above, per godoc convention). Grouped
#    `const (`/`var (` blocks are covered by the block's own doc comment
#    and are not inspected per name.
#
# 2. Server surface: every HTTP route cmd/phpserve and cmd/phprouter
#    register (mux.HandleFunc, with /debug/pprof/* collapsed to its
#    index entry) and every CLI flag they define must be mentioned in
#    docs/OPERATIONS.md, so none can land without operator
#    documentation. (The metric series and /stats keys are not grepped
#    for here: the guide's signals tables are rendered from the running
#    servers and held byte for byte by TestSignalsDoc in cmd/phpserve
#    and TestOperatorSurface in cmd/phprouter, under `go test ./...`.)
#
# 3. Benchmark-record schema, both directions: every `json:"..."` tag in
#    internal/benchrec/record.go must appear (backticked) in
#    docs/OPERATIONS.md, and every backticked first-column name in that
#    guide's "Record schema" tables must still be a tag — a removed
#    field cannot survive as a stale row.
#
# 4. EXPERIMENTS.md against FIGURES.json: the document's generated block
#    must be byte for byte what internal/experiments renders from the
#    committed record (measured values, and the paper's numbers and
#    bands from the one table in paper.go). The check is a Go test that
#    reads the two files and runs no experiment; a difference is printed
#    with its line and the figure it falls under. `make bench-record`
#    rewrites both.
#
# 5. Cited example programs: README.md and EXPERIMENTS.md tell the reader
#    to `go run` examples/quickstart and examples/phpscript, so each must
#    build, exit 0 and print something.
set -u

status=0
for dir in "$@"; do
	for f in "$dir"/*.go; do
		case "$f" in
		*_test.go) continue ;;
		esac
		out=$(awk '
			/^func \([^)]*\) [A-Z]/ || /^(func|type|const|var) [A-Z]/ {
				if (!prev_comment)
					printf "%s:%d: undocumented exported declaration: %s\n", FILENAME, FNR, $0
			}
			{ prev_comment = ($0 ~ /^\/\//) }
		' "$f")
		if [ -n "$out" ]; then
			printf '%s\n' "$out"
			status=1
		fi
	done
done
if [ "$status" -ne 0 ]; then
	echo "docs-check: exported identifiers above need doc comments" >&2
fi

# Endpoint coverage: each route phpserve serves must appear in the
# operations guide. pprof sub-routes are collapsed to /debug/pprof/,
# which the guide documents as one surface. The binary spans several
# files (main.go, tierz.go), so every non-test .go file in the package
# is scanned.
server_src=$(ls cmd/phpserve/*.go 2>/dev/null | grep -v '_test\.go$')
opsdoc=docs/OPERATIONS.md
if [ -n "$server_src" ] && [ -f "$opsdoc" ]; then
	routes=$(sed -n 's/.*mux\.HandleFunc("\([^"]*\)".*/\1/p' $server_src |
		sed 's|^/debug/pprof/.*|/debug/pprof/|' | sort -u)
	for route in $routes; do
		if ! grep -qF "$route" "$opsdoc"; then
			echo "docs-check: endpoint $route (from cmd/phpserve) is not documented in $opsdoc" >&2
			status=1
		fi
	done
fi

# Flag coverage: every flag phpserve defines (flag.Type("name", ...))
# must be documented as -name in the operations guide.
if [ -n "$server_src" ] && [ -f "$opsdoc" ]; then
	flags=$(sed -n 's/.*flag\.[A-Za-z0-9]*("\([^"]*\)".*/\1/p' $server_src | sort -u)
	for f in $flags; do
		if ! grep -qF -- "-$f" "$opsdoc"; then
			echo "docs-check: flag -$f (from cmd/phpserve) is not documented in $opsdoc" >&2
			status=1
		fi
	done
fi

# Router coverage: the phprouter binary gets the same endpoint and flag
# treatment as phpserve — every route it registers and every flag it
# defines must be documented in the operations guide's cluster section.
# The binary spans several files (main.go, clusterobs.go), so every
# non-test .go file in the package is scanned.
router_src=$(ls cmd/phprouter/*.go 2>/dev/null | grep -v '_test\.go$')
if [ -n "$router_src" ] && [ -f "$opsdoc" ]; then
	routes=$(sed -n 's/.*mux\.HandleFunc("\([^"]*\)".*/\1/p' $router_src | sort -u)
	for route in $routes; do
		if ! grep -qF "$route" "$opsdoc"; then
			echo "docs-check: endpoint $route (from cmd/phprouter) is not documented in $opsdoc" >&2
			status=1
		fi
	done
	flags=$(sed -n 's/.*flag\.[A-Za-z0-9]*("\([^"]*\)".*/\1/p' $router_src | sort -u)
	for f in $flags; do
		if ! grep -qF -- "-$f" "$opsdoc"; then
			echo "docs-check: flag -$f (from cmd/phprouter) is not documented in $opsdoc" >&2
			status=1
		fi
	done
fi

# Benchmark-record schema coverage: every JSON field the benchrec
# record serializes must be documented (as `name`) in the operations
# guide's "Benchmark trajectory" section, so a schema field cannot land
# without a reader-facing definition — and every field the guide's
# "Record schema" tables define (the backticked names in a row's first
# column) must still be one the record serializes.
record=internal/benchrec/record.go
if [ -f "$record" ] && [ -f "$opsdoc" ]; then
	fields=$(sed -n 's/.*json:"\([a-z0-9_]*\)[",].*/\1/p' "$record" | sort -u)
	for field in $fields; do
		if ! grep -qF -- "\`$field\`" "$opsdoc"; then
			echo "docs-check: record field $field (from $record) is not documented in $opsdoc" >&2
			status=1
		fi
	done
	documented=$(awk -F'|' '
		/^### Record schema/ { on = 1; next }
		/^##/ { on = 0 }
		on && /^\| `/ { print $2 }
	' "$opsdoc" | grep -o '`[a-z0-9_]*`' | tr -d '`' | sort -u)
	for name in $documented; do
		if ! printf '%s\n' "$fields" | grep -qx -- "$name"; then
			echo "docs-check: $opsdoc \"Record schema\" documents $name, which is not a field of $record" >&2
			status=1
		fi
	done
fi

# EXPERIMENTS.md <-> FIGURES.json.
if ! out=$(go test -count=1 -run '^TestExperimentsDocMatchesRecord$' ./internal/experiments 2>&1); then
	printf '%s\n' "$out" >&2
	echo "docs-check: EXPERIMENTS.md's generated block is not the rendering of FIGURES.json (make bench-record rewrites both)" >&2
	status=1
fi

# Cited example programs still run.
for ex in examples/quickstart examples/phpscript; do
	if ! out=$(go run "./$ex") || [ -z "$out" ]; then
		echo "docs-check: go run ./$ex (cited in README.md / EXPERIMENTS.md) failed or printed nothing" >&2
		status=1
	fi
done
exit $status
