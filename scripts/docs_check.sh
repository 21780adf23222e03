#!/bin/sh
# docs_check.sh PKGDIR... — the documentation gate `make docs-check`
# runs (the Makefile lists the package directories). Four passes, all
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
# 2. Server surface, both directions: every HTTP route phpserve and
#    phprouter register (mux.HandleFunc or mux.Handle in serve.Server
#    and serve.Router) must be mentioned in docs/OPERATIONS.md, and
#    every backticked first-column `GET /path` or `POST /path` of a
#    table in that guide must still be one of them. Every backticked
#    `-flag` and every flag of a phpserve or phprouter command line in
#    README.md, DESIGN.md, docs/ARCHITECTURE.md and docs/OPERATIONS.md
#    must be a row of the guide's generated flags: tables (Go's -race
#    and -h aside). The flag, metric and record-schema tables themselves
#    are rendered from the code and held byte for byte under
#    `go test ./...` (TestFlagsDoc and TestSignalsDoc in cmd/phpserve,
#    TestFlagsDoc and TestOperatorSurface in cmd/phprouter,
#    TestRecordSchemaDoc in internal/benchrec), not grepped for here.
#
# 3. EXPERIMENTS.md against FIGURES.json: the document's generated block
#    must be byte for byte what internal/experiments renders from the
#    committed record (measured values, and the paper's numbers and
#    bands from the one table in paper.go). The check is a Go test that
#    reads the two files and runs no experiment; a difference is printed
#    with its line and the figure it falls under. `make bench-record`
#    rewrites both. A second test holds the hand-kept "Reading the
#    figures" table to the figure list and to the tests it cites.
#
# 4. Cited example programs: README.md and EXPERIMENTS.md tell the reader
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

# Endpoints, both directions: every route serve.Server
# (internal/serve/server.go) or serve.Router (internal/serve/front.go)
# registers with mux.HandleFunc or mux.Handle must appear in the
# operations guide, and every first-column `GET /path` or `POST /path` of
# a guide table must still be one of them. pprof is mounted as one
# /debug/pprof/ subtree, which the guide documents as one surface.
opsdoc=docs/OPERATIONS.md
routes=$(sed -n 's/.*mux\.Handle\(Func\)\{0,1\}("\([^"]*\)".*/\2/p' internal/serve/server.go internal/serve/front.go | sort -u)
for route in $routes; do
	if ! grep -qF "$route" "$opsdoc"; then
		echo "docs-check: endpoint $route is not documented in $opsdoc" >&2
		status=1
	fi
done
for route in $(awk -F'|' '/^\| `(GET|POST) \// { print $2 }' "$opsdoc" | sed -n 's/.*`[A-Z]* \(\/[^`?]*\).*/\1/p' | sort -u); do
	if ! printf '%s\n' "$routes" | grep -qx -- "$route"; then
		echo "docs-check: $opsdoc documents endpoint $route, which neither serve.Server nor serve.Router registers" >&2
		status=1
	fi
done

# Flags in prose: every backticked `-name` in the four reader-facing
# documents (a span that starts with a flag, or a backticked phpserve
# or phprouter command line), and every flag on a phpserve or phprouter
# command line in their code blocks (continuation lines included), must
# be a row of the guide's generated flags: tables — a removed flag
# cannot survive in a paragraph or an example. Go's own -race and the
# flag package's -h are the exceptions.
proseflags() {
	awk '
		# flags prints the -name tokens of s, one name a line.
		function flags(s,    n, i, tok, t) {
			n = split(s, tok, /[ \t]+/)
			for (i = 1; i <= n; i++) {
				t = tok[i]
				gsub(/^["\047(]+|["\047),.;:]+$/, "", t)
				sub(/=.*/, "", t)
				if (t ~ /^-[A-Za-z][A-Za-z0-9_-]*$/)
					print substr(t, 2)
			}
		}
		# spans checks the backticked spans of one paragraph.
		function spans(    n, i, part, sp) {
			n = split(para, part, "`")
			for (i = 2; i <= n; i += 2) {
				sp = part[i]
				sub(/^ +/, "", sp)
				if (sp ~ /^-[A-Za-z]/ || sp ~ ("^" prog))
					flags(sp)
			}
			para = ""
		}
		# commands checks every phpserve or phprouter command of a code
		# line, and the line after one that ends in a backslash.
		function commands(line,    c, n, i, seg) {
			c = cont
			cont = 0
			sub(/#.*/, "", line)
			n = split(line, seg, /&&|[|;&]/)
			for (i = 1; i <= n; i++) {
				if (c && i == 1)
					flags(seg[i])
				else if (match(seg[i], "(^|[ $])" prog))
					flags(substr(seg[i], RSTART))
				else
					continue
				if (seg[i] ~ /\\ *$/)
					cont = 1
			}
		}
		BEGIN { prog = "((\\./|cmd/)?php(serve|router)|go run \\./cmd/php(serve|router))( |$)" }
		/^ *```/ { spans(); fence = !fence; cont = 0; next }
		fence { commands($0); next }
		/^ *$/ { spans(); next }
		{ para = para " " $0 }
		END { spans() }
	' "$1"
}
definedflags=$( (sed -n '/<!-- flags:[a-z]*:begin -->/,/<!-- flags:[a-z]*:end -->/s/^| `-\([A-Za-z0-9_-]*\)`.*/\1/p' "$opsdoc"; echo race; echo h) | sort -u)
for doc in README.md DESIGN.md docs/ARCHITECTURE.md docs/OPERATIONS.md; do
	for f in $(proseflags "$doc" | sort -u); do
		if ! printf '%s\n' "$definedflags" | grep -qx -- "$f"; then
			echo "docs-check: $doc names flag -$f, which neither phpserve nor phprouter defines" >&2
			status=1
		fi
	done
done

# EXPERIMENTS.md <-> FIGURES.json.
if ! out=$(go test -count=1 -run '^(TestExperimentsDocMatchesRecord|TestReadingTheFiguresTable)$' ./internal/experiments 2>&1); then
	printf '%s\n' "$out" >&2
	echo "docs-check: EXPERIMENTS.md does not match FIGURES.json or the figure list (make bench-record rewrites the generated block)" >&2
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
