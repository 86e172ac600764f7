"""Reduction schema: triangular systems to free-group systems.

Given a triangular+constant system and one candidate triple (c_1, c_2, c_3)
per triangular equation -- words that multiply to 1 in the target group --
the schema introduces corner variables x_1, x_2, x_3 per triangle (indices
cyclic) and emits

  * one matching equation per repeated-variable pair:
        x_k^(j) c_k^(j) (x_{k+1}^(j))^-1  =  [x_{k'}^(j') c_{k'}^(j') (x_{k'+1}^(j'))^-1]^(+-1)
  * one anchoring equation per constant-bound variable:
        x_k^(j) c_k^(j) (x_{k+1}^(j))^-1  =  rep(constant)

plus the pullback map sending each original variable through its corner
expression.  For the free-group test target the candidate triples are
trivial (tripod legs meet exactly) and representatives are the constant
words themselves.

The candidate-length constant: enumerating all triples below the bound
L = q * 2^(5050 (delta+1)^6 (2|A|)^(2 delta)) is a finiteness device, not a
computation; ``candidate_length_bound`` reports the exponent exactly and the
decimal size of L, expanding the integer only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .equations import Equation, EquationSystem
from .triangular import TriangularConstantForm
from .words import Generator, Word, substitute


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class CTriple:
    c1: Word
    c2: Word
    c3: Word

    def words(self) -> tuple[Word, Word, Word]:
        return (self.c1, self.c2, self.c3)

    @classmethod
    def trivial(cls) -> "CTriple":
        return cls(Word(), Word(), Word())


@dataclass(frozen=True)
class CTripleChoice:
    """One triple per triangular equation, all shorter than the bound."""

    triples: tuple[CTriple, ...]
    length_bound: int

    def __post_init__(self):
        for t in self.triples:
            for c in t.words():
                if len(c) >= self.length_bound:
                    raise SchemaError(
                        f"candidate word of length {len(c)} reaches the bound "
                        f"{self.length_bound}"
                    )

    def check_products(self) -> None:
        """Certify c1 c2 c3 = 1 in the free target: the product reduces to 1."""
        for i, t in enumerate(self.triples):
            if len(t.c1 * t.c2 * t.c3):
                raise SchemaError(f"triple #{i+1} does not multiply to 1")


def trivial_choice(n: int, length_bound: int = 1) -> CTripleChoice:
    return CTripleChoice(tuple(CTriple.trivial() for _ in range(n)), length_bound)


@dataclass(frozen=True)
class SchemaOutput:
    """The free-group system plus the substitution realizing the reduction."""

    system: EquationSystem
    # original variable name -> word over the output system's symbols
    images: dict[str, Word]
    quasi_lambda: int
    quasi_mu: int
    size_bound: int  # |S| (4 + 2 L + lambda |S| + mu), which the size stays within

    def pullback(self, phi: Mapping[str, Word]) -> dict[str, Word]:
        """Evaluate a solution of the output system on the original variables."""
        amap = {self.system.var_sym(n): w for n, w in phi.items()}
        out: dict[str, Word] = {}
        for name, expr in self.images.items():
            out[name] = substitute(expr, amap, variables=self.system.var_syms)
        return out


def build_schema(
    form: TriangularConstantForm,
    choice: CTripleChoice,
    quasi_lambda: int = 1,
    quasi_mu: int = 0,
) -> SchemaOutput:
    """Emit the corner-variable system for a triangular+constant form.

    The target is free, so each constant word is its own representative.
    Signed occurrences extend the matching equations: when the two
    occurrences of a variable carry opposite signs the right side is
    inverted, which is sound because a representative's inverse is the
    inverse word.

    Asserts the size bound |S_i| <= |S| (4 + 2 L + lambda |S| + mu) on every
    call, with L the choice's length bound.
    """
    if form.trivially_false:
        raise SchemaError("the system is trivially unsolvable (constant relator)")
    if quasi_lambda < 0 or quasi_mu < 0:
        raise SchemaError("need quasi_lambda >= 0 and quasi_mu >= 0")
    triples = form.triples
    if len(choice.triples) != len(triples):
        raise SchemaError(
            f"need {len(triples)} candidate triples, got {len(choice.triples)}"
        )
    src = form.system
    const_of: dict[int, Word] = {}
    for name, w in form.constant_eqs:
        sym = src.var_sym(name)
        if sym in const_of and const_of[sym] != w:
            raise SchemaError(f"conflicting constant bindings for {name}")
        const_of[sym] = w

    # occurrences of each variable among the triangle corners
    slots: dict[int, list[tuple[int, int, int]]] = {}  # sym -> [(tri, k, sign)]
    for j, tri in enumerate(triples):
        for k, g in enumerate(tri):
            slots.setdefault(g.sym, []).append((j, k, g.sign))

    var_names: list[str] = []
    for j in range(len(triples)):
        for k in range(3):
            var_names.append(f"x{j+1}_{k+1}")
    out_sys0 = EquationSystem(src.gens, tuple(var_names), ())
    al = out_sys0.alphabet

    def corner(j: int, k: int) -> Generator:
        return al.gen(f"x{j+1}_{(k % 3) + 1}")

    def side(j: int, k: int) -> Word:
        c = choice.triples[j].words()[k]
        return Word((corner(j, k),)) * c * Word((corner(j, k + 1),)).inverse()

    equations: list[Equation] = []
    images: dict[str, Word] = {}
    for sym, occ in sorted(slots.items()):
        name = src.var_name(sym)
        j, k, sign = occ[0]
        expr = side(j, k)
        images[name] = expr if sign > 0 else expr.inverse()
        if sym in const_of:
            rep = const_of[sym]
            target = rep if sign > 0 else rep.inverse()
            equations.append(Equation(side(j, k), target))
        for (j2, k2, sign2) in occ[1:]:
            rhs = side(j2, k2)
            if sign2 != sign:
                rhs = rhs.inverse()
            equations.append(Equation(side(j, k), rhs))
    for name, cword in form.constant_eqs:
        if name not in images:
            # the variable occurs only in its constant equation
            images[name] = cword

    out = EquationSystem(src.gens, tuple(var_names), tuple(equations))

    size = out.total_length()
    n = src.total_length()
    bound = n * (4 + 2 * choice.length_bound + quasi_lambda * n + quasi_mu)
    if size > bound:
        raise AssertionError(f"internal: schema size bound violated: {size} > {bound}")
    if src.is_quadratic():
        counts = out.occurrence_counts()
        if any(c > 2 for c in counts.values()):
            raise AssertionError("internal: schema must stay quadratic")

    return SchemaOutput(system=out, images=images, quasi_lambda=quasi_lambda,
                        quasi_mu=quasi_mu, size_bound=bound)


def verify_pullback(
    form: TriangularConstantForm, output: SchemaOutput, phi: Mapping[str, Word]
) -> dict[str, Word]:
    """Check phi against the output system, pull it back, check the source.

    Also confirms the collapse h c1 c2 c3 h^-1 = 1 per triangle for the
    free-group target.
    """
    if not output.system.check(phi):
        raise SchemaError("assignment does not solve the schema system")
    back = output.pullback(phi)
    src = form.system
    full = dict(back)
    for name, cword in form.constant_eqs:
        full.setdefault(name, cword)
    if not src.check(full):
        raise SchemaError("pullback does not solve the triangular system")
    return back


def tripod_solution(
    form: TriangularConstantForm,
    output: SchemaOutput,
    assignment: Mapping[str, Word],
) -> dict[str, Word]:
    """Corner values induced by a source solution (free-group target).

    In a free group the triangle g1 g2 g3 = 1 splits along exact tripod legs:
    with trivial candidate triples one may take h1 = 1, h2 = g1^-1,
    h3 = (g1 g2)^-1, and the matching equations hold because both sides
    evaluate to the shared variable's value.
    """
    src = form.system
    amap = {src.var_sym(n): w for n, w in assignment.items()}
    out: dict[str, Word] = {}
    for j, tri in enumerate(form.triples):
        vals = []
        for g in tri:
            v = substitute(Word((g,)), amap, variables=src.var_syms)
            vals.append(v)
        out[f"x{j+1}_1"] = Word()
        out[f"x{j+1}_2"] = vals[0].inverse()
        out[f"x{j+1}_3"] = (vals[0] * vals[1]).inverse()
    if not output.system.check(out):
        raise SchemaError("tripod corners do not solve the schema system")
    return out


# --- the candidate length constant ------------------------------------------------


@dataclass(frozen=True)
class CandidateBound:
    """L = q * 2^exponent with exponent = 5050 (delta+1)^6 (2|A|)^(2 delta)."""

    q: int
    delta: int
    alphabet_size: int
    exponent: int
    digits: int

    def expand(self) -> int:
        return self.q << self.exponent


def candidate_length_bound(q: int, delta: int, alphabet_size: int) -> CandidateBound:
    """Exact bound data; the full integer only on request via expand()."""
    if q < 1 or delta < 0 or alphabet_size < 1:
        raise SchemaError("need q >= 1, delta >= 0, alphabet size >= 1")
    exponent = 5050 * (delta + 1) ** 6 * (2 * alphabet_size) ** (2 * delta)
    digits = _digit_count_shifted(q, exponent)
    return CandidateBound(
        q=q, delta=delta, alphabet_size=alphabet_size, exponent=exponent, digits=digits
    )


def _digit_count_shifted(q: int, e: int) -> int:
    """Exact decimal digit count of q * 2^e without building the integer."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        log10 = Decimal(2).ln() / Decimal(10).ln()
        val = Decimal(e) * log10 + Decimal(q).ln() / Decimal(10).ln()
        floor = int(val)
        frac = val - floor
        near = frac < Decimal("1e-30") or frac > 1 - Decimal("1e-30")
    if near:
        # too close to a power of ten: settle by integer comparison
        n = q << e
        d = floor + 1
        lo = 10 ** (d - 1)
        if n < lo:
            return d - 1
        if n >= lo * 10:
            return d + 1
        return d
    return floor + 1
