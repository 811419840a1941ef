package trace

import "testing"

// FuzzDefaultRule checks the regex decoder's default scanner against its
// specification: defaultToken must find the same token as DefaultRules'
// pattern on any line, or no token where the pattern has no match.
//
//	go test ./internal/trace -run='^$' -fuzz=FuzzDefaultRule -fuzztime=10s
func FuzzDefaultRule(f *testing.F) {
	for _, seed := range []string{
		"",
		"12:00:00.001 member-0 recv NOT_FREE from member-1",
		"ABc DEF",    // lowercase suffix: not a token
		"A B CD",     // single capitals are too short
		"_VOTE 9ACK", // a token must start its word
		"x_VOTE VOTE",
		"\xc3\xa9VOTE\xff", // non-ASCII bytes delimit words
		"\xe2\x80\x8bSTORE_ACK\xe2\x80\x8b",
		"VOTE9 V0TE_",
		"lower only",
		"   ",
	} {
		f.Add([]byte(seed))
	}
	pattern := DefaultRules()[0].Pattern
	f.Fuzz(func(t *testing.T, line []byte) {
		start, end := defaultToken(line)
		m := pattern.FindSubmatchIndex(line)
		if m == nil {
			if start >= 0 {
				t.Fatalf("%q: scanner found %q, pattern has no match", line, line[start:end])
			}
			return
		}
		if start != m[2] || end != m[3] {
			t.Fatalf("%q: scanner bounds [%d,%d), pattern [%d,%d)", line, start, end, m[2], m[3])
		}
	})
}
