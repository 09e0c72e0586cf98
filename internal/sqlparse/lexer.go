// Package sqlparse implements the lexer and recursive-descent parser for
// the platform's SQL dialect. The dialect covers the statements used in the
// paper: analytical SELECT (joins, subqueries, GROUP BY/HAVING, ORDER BY,
// LIMIT, WITH HINT), DML, DDL with extended-storage and partitioning
// clauses, federation DDL (CREATE REMOTE SOURCE / VIRTUAL TABLE / VIRTUAL
// FUNCTION) and the CCL window clause (KEEP …) used by the event stream
// processor.
package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates token categories.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokQuotedIdent
	tokString
	tokNumber
	tokPunct
)

type token struct {
	kind tokKind
	text string // identifier text (original case), string contents, number text or punctuation
	pos  int    // byte offset, for error messages
}

// lexer splits SQL text into tokens. Comments (-- … and /* … */) are
// skipped; a block comment left open is an error, as an open string
// literal is, so it cannot silently swallow the rest of a statement.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		if err := l.skipSpace(); err != nil {
			return nil, err
		}
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case c == '\'':
			s, err := l.lexString()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokString, text: s, pos: start})
		case c == '"':
			s, err := l.lexQuotedIdent()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokQuotedIdent, text: s, pos: start})
		case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
			l.toks = append(l.toks, token{kind: tokNumber, text: l.lexNumber(), pos: start})
		case isIdentStart(c):
			l.toks = append(l.toks, token{kind: tokIdent, text: l.lexIdent(), pos: start})
		default:
			p, err := l.lexPunct()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{kind: tokPunct, text: p, pos: start})
		}
	}
}

func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return fmt.Errorf("unterminated block comment at offset %d", l.pos)
			}
			l.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

func (l *lexer) lexString() (string, error) {
	// Opening quote consumed here; '' escapes a quote.
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("unterminated string literal at offset %d", l.pos)
}

func (l *lexer) lexQuotedIdent() (string, error) {
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '"' {
				b.WriteByte('"')
				l.pos += 2
				continue
			}
			l.pos++
			return b.String(), nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("unterminated quoted identifier at offset %d", l.pos)
}

func (l *lexer) lexNumber() string {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start:
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			return l.src[start:l.pos]
		}
	}
	return l.src[start:l.pos]
}

func (l *lexer) lexIdent() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	return l.src[start:l.pos]
}

var twoCharPunct = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true, ":=": true,
}

func (l *lexer) lexPunct() (string, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		if twoCharPunct[two] {
			l.pos += 2
			return two, nil
		}
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '.', ';', '*', '+', '-', '/', '=', '<', '>', '?':
		l.pos++
		return string(c), nil
	}
	return "", fmt.Errorf("unexpected character %q at offset %d", string(rune(c)), l.pos)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '$' || c == '#' ||
		unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }
