package sqlparse

import (
	"strings"
	"testing"
)

// lexEdgeCases are the places where comments and quotes meet: comment
// markers inside literals, doubled-quote escapes, a backslash (not an
// escape here), comments at the end of input or alone, and a block comment
// that never closes. FuzzParse seeds with them too.
var lexEdgeCases = []struct {
	name    string
	src     string
	tokens  string // kind:text, space separated, EOF left out
	wantErr string // substring of the error; "" = lexes
}{
	{name: "dashes inside a string", src: `SELECT '--x' FROM t`,
		tokens: "ident:SELECT string:--x ident:FROM ident:t"},
	{name: "dashes inside a quoted identifier", src: `SELECT "a--b" FROM t`,
		tokens: `ident:SELECT quoted:a--b ident:FROM ident:t`},
	{name: "block comment opener inside a string", src: `SELECT '/*' FROM t`,
		tokens: "ident:SELECT string:/* ident:FROM ident:t"},
	{name: "doubled quote in a string", src: `SELECT 'it''s'`,
		tokens: "ident:SELECT string:it's"},
	{name: "doubled quote in a quoted identifier", src: `SELECT "a""b"`,
		tokens: `ident:SELECT quoted:a"b`},
	{name: "backslash is not an escape", src: `SELECT 'it\'s'`,
		wantErr: "unterminated string literal"},
	{name: "trailing backslash ends the string", src: `SELECT 'a\'`,
		tokens: `ident:SELECT string:a\`},
	{name: "dashes at end of input", src: "SELECT 1 --",
		tokens: "ident:SELECT number:1"},
	{name: "line comment then next line", src: "SELECT 1 -- one\n, 2",
		tokens: "ident:SELECT number:1 punct:, number:2"},
	{name: "only a line comment", src: "-- nothing to run",
		tokens: ""},
	{name: "only a block comment", src: "/* nothing to run */",
		tokens: ""},
	{name: "block comment mid-statement", src: "SELECT /* a\n b */ 1",
		tokens: "ident:SELECT number:1"},
	{name: "unterminated block comment", src: "SELECT 1 /* unterminated",
		wantErr: "unterminated block comment"},
	{name: "unterminated block comment hides a WHERE", src: "DELETE FROM t /* WHERE id = 5",
		wantErr: "unterminated block comment"},
	{name: "block comment opener at end of input", src: "SELECT 1 /*",
		wantErr: "unterminated block comment"},
}

func renderTokens(toks []token) string {
	kinds := [...]string{tokEOF: "eof", tokIdent: "ident", tokQuotedIdent: "quoted",
		tokString: "string", tokNumber: "number", tokPunct: "punct"}
	var parts []string
	for _, tk := range toks {
		if tk.kind != tokEOF {
			parts = append(parts, kinds[tk.kind]+":"+tk.text)
		}
	}
	return strings.Join(parts, " ")
}

func TestLexerEdges(t *testing.T) {
	for _, c := range lexEdgeCases {
		t.Run(c.name, func(t *testing.T) {
			toks, err := lex(c.src)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("lex(%q) error = %v, want %q", c.src, err, c.wantErr)
				}
				if _, err := Parse(c.src); err == nil {
					t.Fatalf("Parse(%q) succeeded", c.src)
				}
				return
			}
			if err != nil {
				t.Fatalf("lex(%q): %v", c.src, err)
			}
			if got := renderTokens(toks); got != c.tokens {
				t.Fatalf("lex(%q)\n got: %s\nwant: %s", c.src, got, c.tokens)
			}
		})
	}
}
