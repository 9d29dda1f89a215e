"""Eventually periodic sequences and exact limit checks in finite categories.

Sequences are described finitely as prefix + repeating cycle, which makes the
defining sup-inf expressions decidable: the inf over any tail is a minimum
over the cycle, and the sup over start points stabilizes once the prefix is
discarded.  On top of ``tail_value`` the module decides the two Cauchy-style
conditions, finds bilimits and Yoneda limits with full certificates, and
packages the completeness checks for finite categories, product categories,
and function spaces.

Category laws without a t-norm.  Two laws hold in a category under every
t-norm: reflexivity, hom(c, c) = 1, and transitivity with a factor 1,
hom(i, k) >= min(hom(i, j), hom(j, k)) whenever hom(i, j) or hom(j, k) is 1,
since 1 & v = v & 1 = v.  They are exactly validity under the carrier's
weakest t-norm (proof in ``_check_laws``).  ``find_bilimit``,
``find_yoneda_limit`` and ``check_yoneda_continuity`` check them first and
raise a ``PreconditionError`` on a carrier that breaks them.

Finite-completeness lemma (it needs only these laws).  A Cauchy or
forward-Cauchy cycle has hom 1 between any two of its elements
(``is_forward_cauchy``).  By transitivity with a factor 1, each cycle
element c0 has hom(c0, x) = min_c hom(c, x) and hom(x, c0) = min_c hom(x, c)
for every x: c0 is a bilimit and a Yoneda limit of the cycle.  So every
finite category is Cauchy and Yoneda complete, and so are products and
function spaces of finite categories.  ``is_cauchy_complete`` and
``check_product_bilimit`` use the lemma instead of sweeping cycles:
``is_cauchy_complete`` checks one one-element cycle.  On a matrix that is
not a category they keep the result of the full sweep (proofs in their
docstrings).  The function-space check builds no power: once base
and fiber are categories, every Cauchy cycle of functors has a bilimit that
is isomorphic to its pointwise limit, for every t-norm (proof in
``check_power_completeness``).

Continuity corollary.  A Yoneda limit a of a forward-Cauchy cycle has hom 1
both ways with each cycle element (hom(c, a) = min_c' hom(c', a) = hom(a, a)
= 1).  A functor f keeps hom 1, so the image cycle is forward Cauchy and f(a)
has hom 1 both ways with each image element; by the lemma the image has a
Yoneda limit, and every one has hom 1 both ways with each image element too,
hence with f(a), by transitivity with a factor 1.  So every functor between
finite categories is Yoneda continuous, and ``check_yoneda_continuity``
checks only its preconditions.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ._records import Record, replace
from .errors import InputError, InvariantError, PreconditionError
from .rationals import ONE, ZERO, format_rational
from .tnorms import TNorm, Witness, _c1_failure, interval_collapse
from .categories import (
    RCat,
    RFunctor,
    _require_valid,
    is_functor,
    validate,
)

FROM_SEQ = "from-seq"
TO_SEQ = "to-seq"


class TailSeq(Record):
    """An eventually periodic sequence in a finite category."""

    carrier: RCat
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "cycle", tuple(self.cycle))
        if not self.cycle:
            raise InputError("cycle must be nonempty")
        for lbl in self.prefix + self.cycle:
            self.carrier.index(lbl)


def tail_value(seq: TailSeq, x, direction: str = FROM_SEQ) -> Fraction:
    """sup over tails of the inf of hom values between the sequence and x.

    The prefix never contributes: a late enough tail contains only cycle
    elements, each infinitely often, so the value is the cycle minimum of
    hom(c, x) (direction "from-seq") or hom(x, c) (direction "to-seq").
    """
    cat = seq.carrier
    xi = cat.index(x)
    if direction == FROM_SEQ:
        return min(cat.hom[cat.index(c)][xi] for c in seq.cycle)
    if direction == TO_SEQ:
        return min(cat.hom[xi][cat.index(c)] for c in seq.cycle)
    raise InputError(f"unknown direction {direction!r}")


def is_cauchy(seq: TailSeq) -> Witness | None:
    """None iff hom is 1 between every ordered pair of cycle elements."""
    cat = seq.carrier
    for c in seq.cycle:
        for c2 in seq.cycle:
            v = cat.hom_of(c, c2)
            if v != ONE:
                return Witness((c, c2), v, ONE, note="cauchy")
    return None


def is_forward_cauchy(seq: TailSeq) -> Witness | None:
    """Cauchy condition restricted to increasing index pairs.

    For an eventually periodic sequence every ordered pair of cycle elements
    is reachable with increasing indices (cross into a later period), so this
    coincides with ``is_cauchy``; only the witness note differs.
    """
    w = is_cauchy(seq)
    return None if w is None else replace(w, note="forward-cauchy")


class CertificateRow(Record):
    """One carrier element's hom-vs-tail comparison backing a limit verdict.

    A "none" verdict has no witness: each row's element is a candidate
    that fails, and its hom fields hold hom(element, element).
    """

    element: object
    hom_from_witness: Fraction
    tail_from_seq: Fraction
    hom_to_witness: Fraction | None = None
    tail_to_seq: Fraction | None = None


class LimitVerdict(Record):
    kind: str  # "bilimit" | "yoneda-limit" | "none"
    witness: object | None
    certificate: tuple[CertificateRow, ...] = ()


def is_bilimit(seq: TailSeq, a) -> bool:
    return tail_value(seq, a, TO_SEQ) == ONE and tail_value(seq, a, FROM_SEQ) == ONE


def _check_laws(cat: RCat) -> None:
    """Raise unless ``cat`` keeps the category laws shared by every t-norm.

    Those are reflexivity and transitivity with a factor 1 (module
    docstring), and they are exactly validity under the carrier's weakest
    t-norm T = ``interval_collapse([(0, b)])``, where b is the largest hom
    value below 1 (0 if there is none):

    * On the hom values, T maps two values that are both below 1, so both
      at most b, to 0, and any other pair to its minimum: a pair with a 1
      does not lie in [0, b].  With b = 0 the interval is degenerate and
      dropped, so T is the minimum, which also maps 0 & 0 to 0.  (On these
      values T is the drastic t-norm, the least of all t-norms.)
    * So hom(j, k) & hom(i, j) <= hom(i, k) holds when both factors are
      below 1, and otherwise it reads hom(i, k) >= min(hom(i, j), hom(j, k))
      with a factor 1: T-transitivity at (i, j, k) is transitivity with a
      factor 1 there.

    ``validate`` scans reflexivity in label order, then the triples of
    distinct elements in ``permutations`` order, and its witness names the
    first law that breaks.
    """
    b = max((v for v in itertools.chain.from_iterable(cat.hom) if v != ONE), default=ZERO)
    w = validate(cat, interval_collapse([(ZERO, b)]))
    if w is not None:
        raise PreconditionError(f"carrier is not a valid category at {w.values}: {w.note}")


def _limit_verdicts(seq: TailSeq, t: TNorm | None = None) -> tuple:
    """The Cauchy witness, the bilimit verdict and the Yoneda verdict of ``seq``.

    The Yoneda verdict is None unless the sequence is Cauchy.  The carrier's
    laws are scanned once: by ``validate`` under ``t`` (a failure is an
    ``InputError``), else by ``_check_laws``, which ``find_bilimit`` and
    ``find_yoneda_limit`` would each run.  A carrier valid under t passes
    ``_check_laws``: that is ``validate`` under a t-norm T which on the hom
    values is the drastic t-norm D (x D y = min(x, y) if x or y is 1, else
    0), the least t-norm, since x t 1 = x, 1 t y = y and x t y >= 0.  Both
    scans check the same reflexivity, and at each triple hom(j,k) T hom(i,j)
    = hom(j,k) D hom(i,j) <= hom(j,k) t hom(i,j) <= hom(i,k).  So no further
    scan can fail, and the two searches run without one.  ``is_cauchy``
    runs once: for an eventually periodic sequence it decides forward
    Cauchy too (``is_forward_cauchy``), the precondition of the Yoneda
    search.
    """
    if t is None:
        _check_laws(seq.carrier)
    else:
        w = validate(seq.carrier, t)
        if w is not None:
            raise InputError(f"carrier is not a valid category at {w.values}: {w.note}")
    cauchy = is_cauchy(seq)
    bilimit = _find_bilimit(seq)
    return cauchy, bilimit, None if cauchy is not None else _find_yoneda_limit(seq)


def find_bilimit(seq: TailSeq) -> LimitVerdict:
    """First carrier element with both tail distances equal to 1.

    The carrier must keep the laws of ``_check_laws``.  A returned witness
    also satisfies the defining equalities hom(a,x) = tail-from(x) and
    hom(x,a) = tail-to(x) for every x, which the certificate records and
    checks.  Both tails of a are 1, so hom(a, c) = hom(c, a) = 1 for every
    cycle element c, and the tails at x are the cycle minima of hom(c, x)
    and hom(x, c).  Transitivity with a factor 1 at (a, c, x) gives hom(a, x)
    >= hom(c, x) for every c, and at (c, a, x) it gives hom(c, x) >=
    hom(a, x); so hom(a, x) is the least hom(c, x), and (x, c, a), (x, a, c)
    settle the column alike.  So the ``InvariantError`` is reached only if
    ``tail_value`` or ``is_bilimit`` is itself wrong.
    """
    _check_laws(seq.carrier)
    return _find_bilimit(seq)


def _find_bilimit(seq: TailSeq) -> LimitVerdict:
    """``find_bilimit`` on a carrier whose laws have been checked.

    The "none" verdict's certificate has one row per element a, comparing
    hom(a, a) = 1 with a's own from-tail and to-tail: at least one of them
    is not 1, or a would be a bilimit.
    """
    cat = seq.carrier
    a = next((e for e in cat.elements if is_bilimit(seq, e)), None)
    if a is None:
        return LimitVerdict("none", None, tuple(_bilimit_row(seq, x, x) for x in cat.elements))
    rows = tuple(_bilimit_row(seq, a, x) for x in cat.elements)
    for row in rows:
        if row.hom_from_witness != row.tail_from_seq or row.hom_to_witness != row.tail_to_seq:
            raise InvariantError(f"bilimit {a!r} fails its certificate at {row.element!r}")
    return LimitVerdict("bilimit", a, rows)


def _bilimit_row(seq: TailSeq, a, x) -> CertificateRow:
    """hom(a, x) and hom(x, a) against the from-tail and to-tail at x."""
    cat = seq.carrier
    return CertificateRow(x, cat.hom_of(a, x), tail_value(seq, x, FROM_SEQ),
                          cat.hom_of(x, a), tail_value(seq, x, TO_SEQ))


def _require_forward_cauchy(seq: TailSeq) -> None:
    w = is_forward_cauchy(seq)
    if w is not None:
        raise PreconditionError(
            f"sequence is not forward Cauchy: hom{w.values} = {w.lhs}"
        )


def find_yoneda_limit(seq: TailSeq) -> LimitVerdict:
    """First element a with hom(a, x) equal to the tail-from value for all x.

    The carrier must keep the laws of ``_check_laws`` and the sequence must
    be forward Cauchy.  Then the search always finds an element: hom(c, c')
    = 1 for any two cycle elements (``is_forward_cauchy``), so transitivity
    with a factor 1 at (cycle[0], c, x) and (c, cycle[0], x) gives
    hom(cycle[0], x) = min_c hom(c, x), which is the tail-from value at x.
    So the ``InvariantError`` is reached only if ``tail_value`` is itself
    wrong.
    """
    _check_laws(seq.carrier)
    _require_forward_cauchy(seq)
    return _find_yoneda_limit(seq)


def _find_yoneda_limit(seq: TailSeq) -> LimitVerdict:
    """``find_yoneda_limit`` on a carrier whose laws have been checked and
    a forward-Cauchy sequence."""
    cat = seq.carrier
    tails = {x: tail_value(seq, x, FROM_SEQ) for x in cat.elements}
    for a in cat.elements:
        if all(cat.hom_of(a, x) == tails[x] for x in cat.elements):
            rows = tuple(
                CertificateRow(x, cat.hom_of(a, x), tails[x]) for x in cat.elements
            )
            return LimitVerdict("yoneda-limit", a, rows)
    raise InvariantError(f"forward-Cauchy cycle {seq.cycle!r} has no Yoneda limit")


def is_cauchy_complete(cat: RCat) -> Witness | None:
    """Every Cauchy cycle must have a bilimit.

    Gives the result, exception and message included, of running
    ``find_bilimit`` on every Cauchy cycle of length 1..b, in the order of
    ``enumerate_cycles(cat, b)`` in ``tests/oracles.py``, for any b >= 1,
    on any matrix, but runs it only on the first cycle (c,) with
    hom(c, c) = 1:

    * The sweep visits the cycles of length 1 first, in element order, and
      a Cauchy cycle needs hom(c, c) = 1 for each of its elements c.  So
      both start with ``find_bilimit`` on the same cycle (c,), or the sweep
      meets no Cauchy cycle and both return None.
    * That first call checks the laws, and raises as the sweep does if the
      carrier breaks them.  Otherwise no later call raises: every element of
      a Cauchy cycle is a bilimit of it (finite-completeness lemma), so
      ``find_bilimit`` never returns "none", and its certificate holds (proof
      in ``find_bilimit``).

    Finite categories always pass.  ``tests/test_proofs.py`` compares this
    with the full sweep on random matrices, categories or not.
    """
    for i, c in enumerate(cat.elements):
        if cat.hom[i][i] == ONE:
            find_bilimit(TailSeq(cat, (), (c,)))
            break
    return None


def check_product_bilimit(a_seq: TailSeq, b_seq: TailSeq) -> Witness | None:
    """Componentwise bilimits must pair into a bilimit of the paired sequence.

    Both sequences must be Cauchy.  Then the pairing always holds, so the
    check only runs ``find_bilimit`` on each sequence, whose certificate
    errors it raises, and builds neither the product nor the paired sequence:

    * Each Cauchy sequence has a bilimit (finite-completeness lemma), so the
      componentwise bilimits a and b exist.
    * The paired sequence n ↦ (a_n, b_n) lives in the product of the
      carriers.  Past both prefixes each of its terms is a pair (c, d) of
      cycle elements, so its cycle holds only such pairs, and its tail
      values are minima over them.  Under the min hom of the product,
      hom((a, b), (c, d)) = min(hom(a, c), hom(b, d)) = 1, and likewise
      back, so (a, b) is a bilimit of the paired sequence.

    ``tests/test_proofs.py`` compares this with
    ``oracles.product_bilimit_sweep``, which builds the paired sequence.
    """
    for name, seq in (("first", a_seq), ("second", b_seq)):
        w = is_cauchy(seq)
        if w is not None:
            raise PreconditionError(f"{name} sequence is not Cauchy at {w.values}")
    find_bilimit(a_seq)
    find_bilimit(b_seq)
    return None


def check_power_completeness(t: TNorm, base: RCat, fiber: RCat) -> Witness | None:
    """Function spaces over a C1-passing t-norm stay Cauchy complete.

    Every Cauchy functor cycle has a bilimit in the power, and taking the
    bilimit of f_n(a) in the fiber for each a yields a functor isomorphic
    (mutual hom 1) to it.  That holds for every t-norm once base and fiber
    are categories, so after validating both nothing is left to check, and
    neither the power nor its functors are built or counted:

    * f = cycle[0] is a bilimit of a Cauchy cycle f_n, by the
      finite-completeness lemma (module docstring).  The lemma applies since
      the power inherits transitivity with a factor 1 from the fiber:
      d(f,g) = 1 gives hom(f(a), g(a)) = 1 (take a = a'), so
      hom(f(a), h(a')) >= hom(g(a), h(a')) and d(f,h) >= d(g,h); likewise
      d(g,h) = 1 gives d(f,h) >= d(f,g).
    * For the same reason each pointwise cycle f_n(a) is Cauchy in the
      fiber; its first bilimit is the first fiber element isomorphic to
      f(a).  Call the pointwise map g.
    * g is a functor isomorphic to f, by transitivity of the fiber alone:
      hom(f(a), g(a')) >= hom(f(a'), g(a')) & hom(f(a), f(a')) =
      hom(f(a), f(a')) >= hom(a,a'), so d(f,g) = 1; likewise
      hom(g(a), f(a')) >= hom(f(a), f(a')) & hom(g(a), f(a)) gives
      d(g,f) = 1, and hom(g(a), g(a')) >= hom(f(a), g(a')) & hom(g(a), f(a))
      >= hom(a,a') makes g a functor.

    So g is a power element isomorphic to the power bilimit, whatever the
    cycle.  ``tests/test_proofs.py`` checks the last point by brute force.

    Since no functor is enumerated, no budget applies.  The C1
    precondition is kept as the contract of the check, although the proof
    does not use it.  ``tnorms._c1_failure`` decides it, and the error
    names the triple of its witness, the first C1 violation that
    ``check_c1`` finds on ``canonical_grid(t)``.
    """
    w = _c1_failure(t)
    if w is not None:
        triple = ", ".join(map(format_rational, w.values))
        raise PreconditionError(f"t-norm {t.describe()} fails C1 at ({triple})")
    _require_valid(t, base, fiber)
    return None


def check_yoneda_continuity(f: RFunctor, seqs) -> None:
    """Image sequences must converge to the image of the source limit.

    Source and target must keep the laws of ``_check_laws``, ``f`` must be
    a functor, and each sequence must live in the source and be forward
    Cauchy; a violation raises ``PreconditionError``.  Nothing is left to
    check then: every functor between finite categories is Yoneda
    continuous (continuity corollary in the module docstring), so the image
    sequences and their limits are not built.  ``tests/test_completeness.py``
    compares this with the check that builds them.
    """
    _check_laws(f.source)
    _check_laws(f.target)
    w = is_functor(f)
    if w is not None:
        raise PreconditionError(f"map is not a functor at {w.values}: {w.note}")
    for i, seq in enumerate(seqs):
        if seq.carrier != f.source:
            raise PreconditionError(f"sequence {i} does not live in the source")
        _require_forward_cauchy(seq)
