// Package php implements an interpreter for a PHP subset, executing on
// top of the vm.Runtime so that every hash map access, allocation,
// string function, and regexp call a script performs flows through the
// simulated (and optionally accelerated) machinery — the same shape as
// HHVM executing the paper's applications.
//
// Supported language: variables, integers/floats/strings/booleans/null,
// arrays (ordered maps, literal `[...]` and `array(...)`), arithmetic,
// comparison and logical operators, string concatenation with `.`,
// `if`/`elseif`/`else`, `while`, `foreach ($a as $k => $v)`, user
// function declarations with positional parameters and `return`, `echo`,
// and a library of built-ins mapped onto the runtime's accelerated
// operations (strtoupper, str_replace, preg_replace, extract, ...).
package php

import (
	"fmt"
	"strings"
)

// tokenKind classifies lexer output.
type tokenKind uint8

const (
	tEOF   tokenKind = iota
	tVar             // $name
	tIdent           // identifier or keyword
	tInt
	tFloat
	tString // quoted string literal (decoded)
	tOp     // operator or punctuation
	tInlineHTML
)

type token struct {
	kind tokenKind
	text string
	line int
}

func (t token) String() string {
	return fmt.Sprintf("%q@%d", t.text, t.line)
}

// lexer scans PHP source. Text outside <?php ... ?> is inline HTML,
// emitted verbatim (as PHP does).
type lexer struct {
	src    string
	pos    int
	line   int
	inPHP  bool
	tokens []token
}

// lex tokenizes the whole source.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		if !l.inPHP {
			if err := l.lexHTML(); err != nil {
				return nil, err
			}
			continue
		}
		if err := l.lexPHP(); err != nil {
			return nil, err
		}
	}
	l.emit(tEOF, "")
	return l.tokens, nil
}

func (l *lexer) emit(kind tokenKind, text string) {
	l.tokens = append(l.tokens, token{kind: kind, text: text, line: l.line})
}

func (l *lexer) lexHTML() error {
	start := l.pos
	idx := strings.Index(l.src[l.pos:], "<?php")
	if idx < 0 {
		html := l.src[start:]
		if html != "" {
			l.countLines(html)
			l.emit(tInlineHTML, html)
		}
		l.pos = len(l.src)
		return nil
	}
	html := l.src[start : start+idx]
	if html != "" {
		l.countLines(html)
		l.emit(tInlineHTML, html)
	}
	l.pos = start + idx + len("<?php")
	l.inPHP = true
	return nil
}

func (l *lexer) countLines(s string) {
	l.line += strings.Count(s, "\n")
}

func (l *lexer) lexPHP() error {
	// Skip whitespace and comments.
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case strings.HasPrefix(l.src[l.pos:], "//") || strings.HasPrefix(l.src[l.pos:], "#"):
			nl := strings.IndexByte(l.src[l.pos:], '\n')
			if nl < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += nl
			}
		case strings.HasPrefix(l.src[l.pos:], "/*"):
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return fmt.Errorf("php: line %d: unterminated comment", l.line)
			}
			l.countLines(l.src[l.pos : l.pos+2+end+2])
			l.pos += 2 + end + 2
		default:
			goto body
		}
	}
	return nil
body:
	if l.pos >= len(l.src) {
		return nil
	}
	if strings.HasPrefix(l.src[l.pos:], "?>") {
		l.pos += 2
		// PHP eats one newline directly after ?>.
		if l.pos < len(l.src) && l.src[l.pos] == '\n' {
			l.pos++
			l.line++
		}
		l.inPHP = false
		return nil
	}
	c := l.src[l.pos]
	switch {
	case c == '$':
		return l.lexVar()
	case c >= '0' && c <= '9':
		return l.lexNumber()
	case c == '\'' || c == '"':
		return l.lexString(c)
	case isIdentStart(c):
		return l.lexIdent()
	default:
		return l.lexOp()
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (l *lexer) lexVar() error {
	start := l.pos
	l.pos++ // '$'
	if l.pos >= len(l.src) || !isIdentStart(l.src[l.pos]) {
		return fmt.Errorf("php: line %d: bad variable name", l.line)
	}
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.emit(tVar, l.src[start+1:l.pos])
	return nil
}

func (l *lexer) lexNumber() error {
	start := l.pos
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !isFloat && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			isFloat = true
			l.pos++
			continue
		}
		break
	}
	if isFloat {
		l.emit(tFloat, l.src[start:l.pos])
	} else {
		l.emit(tInt, l.src[start:l.pos])
	}
	return nil
}

func (l *lexer) lexString(quote byte) error {
	if quote == '"' {
		return l.lexInterpolated()
	}
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			l.emit(tString, sb.String())
			return nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			n := l.src[l.pos+1]
			l.pos += 2
			if quote == '"' {
				switch n {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case 'r':
					sb.WriteByte('\r')
				case '"', '\\', '$':
					sb.WriteByte(n)
				default:
					sb.WriteByte('\\')
					sb.WriteByte(n)
				}
			} else {
				switch n {
				case '\'', '\\':
					sb.WriteByte(n)
				default:
					sb.WriteByte('\\')
					sb.WriteByte(n)
				}
			}
			continue
		}
		if c == '\n' {
			l.line++
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("php: line %d: unterminated string", l.line)
}

func (l *lexer) lexIdent() error {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	l.emit(tIdent, l.src[start:l.pos])
	return nil
}

// multi-character operators, longest first.
var operators = []string{
	"===", "!==", "<=>", "=>", "==", "!=", "<=", ">=", "&&", "||", "++", "--", ".=", "+=", "-=", "*=", "/=",
	"(", ")", "[", "]", "{", "}", ";", ",", "=", ".", "+", "-", "*", "/", "%", "<", ">", "!", "?", ":", "&",
}

func (l *lexer) lexOp() error {
	for _, op := range operators {
		if strings.HasPrefix(l.src[l.pos:], op) {
			l.emit(tOp, op)
			l.pos += len(op)
			return nil
		}
	}
	return fmt.Errorf("php: line %d: unexpected character %q", l.line, l.src[l.pos])
}

// lexInterpolated scans a double-quoted string with $var interpolation,
// emitting synthetic concatenation tokens: "a$x b" becomes
// ( "a" . $x . " b" ). Emitting tokens (rather than a dedicated AST node)
// keeps the parser unaware of interpolation while preserving precedence.
func (l *lexer) lexInterpolated() error {
	l.pos++ // opening quote
	type part struct {
		isVar bool
		text  string
	}
	var parts []part
	var sb strings.Builder
	flush := func() {
		parts = append(parts, part{text: sb.String()})
		sb.Reset()
	}
	for {
		if l.pos >= len(l.src) {
			return fmt.Errorf("php: line %d: unterminated string", l.line)
		}
		c := l.src[l.pos]
		switch {
		case c == '"':
			l.pos++
			flush()
			goto done
		case c == '\\' && l.pos+1 < len(l.src):
			n := l.src[l.pos+1]
			l.pos += 2
			switch n {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case 'r':
				sb.WriteByte('\r')
			case '"', '\\', '$':
				sb.WriteByte(n)
			default:
				sb.WriteByte('\\')
				sb.WriteByte(n)
			}
		case c == '$' && l.pos+1 < len(l.src) && isIdentStart(l.src[l.pos+1]):
			flush()
			l.pos++
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			parts = append(parts, part{isVar: true, text: l.src[start:l.pos]})
		default:
			if c == '\n' {
				l.line++
			}
			sb.WriteByte(c)
			l.pos++
		}
	}
done:
	// Fast path: no interpolation.
	if len(parts) == 1 {
		l.emit(tString, parts[0].text)
		return nil
	}
	l.emit(tOp, "(")
	first := true
	for _, p := range parts {
		if p.text == "" && !p.isVar {
			continue
		}
		if !first {
			l.emit(tOp, ".")
		}
		first = false
		if p.isVar {
			l.emit(tVar, p.text)
		} else {
			l.emit(tString, p.text)
		}
	}
	if first { // string was entirely empty pieces, e.g. "$" edge handled above
		l.emit(tString, "")
	}
	l.emit(tOp, ")")
	return nil
}
