package textsim

import (
	"hash/fnv"
	"math"
	"testing"
)

// refHash is the stdlib FNV-1a the inline implementation replaces.
func refHash(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

func TestInlineFNVMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "requests", "HTTP", "päckage", "0x41_base64_chunk"} {
		if got, want := fnv1a64(s), refHash(s); got != want {
			t.Errorf("fnv1a64(%q) = %#x, stdlib %#x", s, got, want)
		}
	}
}

// TestHashTokensMatchesReference checks the shared pass against the
// NormalizeToken+Informative+FNV composition it replaces, including ASCII
// case folding, stopwords, pure numbers, short tokens and non-ASCII input.
func TestHashTokensMatchesReference(t *testing.T) {
	tokens := []string{
		"exfiltrate", "Exfiltrate", "EXFILTRATE", // case folding
		"def", "Return", "IMPORT", // stopwords in any case
		"ab", "x", "", // too short
		"12345", "3.14", // pure numbers / punctuation digits
		"base64chunk01", "10x", // mixed alphanumerics stay
		"péché", "ÜBER", // non-ASCII slow path
		"requests", "reqUests",
	}
	hashed := HashTokens(tokens, nil)
	if len(hashed) != len(tokens) {
		t.Fatalf("HashTokens length %d, want %d", len(hashed), len(tokens))
	}
	for i, tok := range tokens {
		norm := NormalizeToken(tok)
		wantSkip := !Informative(norm)
		if hashed[i].Skip != wantSkip {
			t.Errorf("token %q: Skip = %v, want %v", tok, hashed[i].Skip, wantSkip)
			continue
		}
		if !wantSkip && hashed[i].Hash != refHash(norm) {
			t.Errorf("token %q: hash %#x, want %#x", tok, hashed[i].Hash, refHash(norm))
		}
	}
	// Buffer reuse must not change results.
	reused := HashTokens(tokens, hashed)
	for i := range reused {
		if reused[i] != hashed[i] {
			t.Errorf("reused buffer diverges at %d", i)
		}
	}
}

func TestEmbedHashedMatchesEmbedTokens(t *testing.T) {
	src := sampleSource(2000)
	tokens := Tokenize(src)
	e := NewEmbedder(DefaultEmbedConfig())
	direct := e.EmbedTokens(tokens)
	viaHash := e.EmbedHashed(HashTokens(tokens, nil))
	if len(direct) != len(viaHash) {
		t.Fatalf("lengths differ: %d vs %d", len(direct), len(viaHash))
	}
	for i := range direct {
		if direct[i] != viaHash[i] {
			t.Fatalf("dim %d: %v vs %v", i, direct[i], viaHash[i])
		}
	}
}

func TestSimHashHashedMatchesSimHash(t *testing.T) {
	tokens := Tokenize(sampleSource(1500))
	if got, want := SimHashHashed(HashTokens(tokens, nil)), SimHash(tokens); got != want {
		t.Fatalf("SimHashHashed %#x, SimHash %#x", got, want)
	}
}

func TestDotEqualsCosineForNormalisedVectors(t *testing.T) {
	e := NewEmbedder(DefaultEmbedConfig())
	a := e.EmbedSource(sampleSource(900))
	b := e.EmbedSource(sampleSource(1100))
	dot, cos := Dot(a, b), Cosine(a, b)
	if math.Abs(dot-cos) > 1e-12 {
		t.Fatalf("Dot %v vs Cosine %v on normalised vectors", dot, cos)
	}
	// Unnormalised inputs still need Cosine.
	a2 := []float64{2, 0}
	b2 := []float64{2, 0}
	if got := Cosine(a2, b2); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Cosine on unnormalised = %v, want 1", got)
	}
}

func TestTokenizeAppendReusesBuffer(t *testing.T) {
	src := sampleSource(300)
	want := Tokenize(src)
	buf := make([]string, 0, 4096)
	got := TokenizeAppend(buf[:0], src)
	if len(got) != len(want) {
		t.Fatalf("token counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("token %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// sampleSource generates deterministic pseudo-code with enough identifier
// variety to exercise snippets, stopwords and literals.
func sampleSource(n int) string {
	words := []string{
		"import", "requests", "payload", "exfil", "host", "token42",
		"def", "collect", "send_data", "base64", "urlopen", "bananasquad",
	}
	src := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		w := words[(i*7+i/5)%len(words)]
		src = append(src, w...)
		if i%9 == 0 {
			src = append(src, '(', '\'', 'h', 't', 't', 'p', '\'', ')')
		}
		src = append(src, ' ')
		if i%13 == 0 {
			src = append(src, '\n')
		}
	}
	return string(src)
}
