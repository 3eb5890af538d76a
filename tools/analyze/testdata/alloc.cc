// Fixture: SCRPQO_NOALLOC — two seeded transitive violations (the roots
// never allocate directly; a callee does, reached once through a plain
// reference parameter and once through a `const T&` local) and one
// sanctioned function-scope SCRPQO_EFFECT_ALLOW(alloc) that must stay
// silent.
// Fixtures are parsed, never compiled, so the effect macros are spelled
// bare (the analyzer greps for the tokens, mirroring tools/lint/testdata).

namespace fx {

struct Helper {
  void Grow() {
    data_ = new double[8];  // effects-expect(alloc)
  }

  void Bump()
      SCRPQO_EFFECT_ALLOW(alloc, "fixture: amortized chunk growth, pinned by a watermark test") {
    slots_ = new int[4];
  }

  double* data_;
  int* slots_;
};

// Two classes share a method name, so a call through a `const T&` local
// resolves only if the local's declared type is read.
struct Lookup {
  double Estimate() const {
    return *new double(1.0);  // effects-expect(alloc)
  }
};

struct Constant {
  double Estimate() const { return 1.0; }
};

SCRPQO_NOALLOC
double HotViaConstRef(const Lookup* table) {
  const Lookup& entry = table[0];
  return entry.Estimate();
}

SCRPQO_NOALLOC
void HotAlloc(Helper& h) {
  h.Grow();
}

SCRPQO_NOALLOC
void HotAllowed(Helper& h) {
  h.Bump();
}

}  // namespace fx
