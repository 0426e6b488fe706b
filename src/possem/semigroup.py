"""Semigroup engine: matrix exponentials, positivity scans, factorization.

The propagator exp(-t A) with A = Mass^-1 K has a spectral path and a dense
one.  When K is Hermitian (to the rounding tolerance
tol = 1e-12 * max(1, max |K|)), A is similar to the Hermitian
S = Mass^-1/2 K Mass^-1/2, and one ``eigh`` S = V diag(lam) V^H gives
exp(-t A) = W diag(exp(-t lam)) W^-1 with W = Mass^-1/2 V and
W^-1 = V^H Mass^1/2 at every time: a propagator is one matrix product and a
state two matrix-vector products.  This is backward stable for normal
matrices (Moler and Van Loan, *Nineteen dubious ways to compute the
exponential of a matrix, twenty-five years later*, SIAM Rev. 2003).

The same path serves a one-way channel coupling.  Channels whose blocks of
K both exceed tol form a group (two-way contact); when every group's
diagonal block is Hermitian and no group both receives a block from another
group and sends one, S = D + N with D = blockdiag_g(S_g) and N N = 0, so the
Dyson series of exp(-t S) stops at first order (Van Loan, *Computing
integrals involving the matrix exponential*, IEEE TAC 1978; Higham,
*Functions of Matrices*, 2008, sec. 3.2):

    exp(-t A) = blockdiag_g(W_g exp(-t Lam_g) W_g^-1)
                - sum_{g->h} W_g [(V_g^H S_gh V_h) o Phi(t)] W_h^-1,

with one ``eigh`` S_g = V_g Lam_g V_g^H per group and
Phi_ab = int_0^t exp(-(t - s) lam_a) exp(-s mu_b) ds, written so that close
or far eigenvalues neither cancel nor overflow (``_phi``).  Cross-group
blocks at most tol count as zero, as the Hermitian test counts K - K^H.  Any
other generator goes to ``scipy.linalg.expm`` (scaling and squaring with
Pade approximants, Al-Mohy and Higham 2009).

The positivity scan has a third path for a generator with no spectral form:
one chain E(t_k) = exp(-(t_k - t_{k-1}) A) E(t_{k-1}), E(0) = I, over the
sorted times by ``scipy.sparse.linalg.expm_multiply`` on the generator's CSR
(Al-Mohy and Higham, *Computing the action of the matrix exponential*, SIAM J.
Sci. Comput. 2011).  Its truncated Taylor series costs sparse products only,
and the N columns of E share one choice of degree and scaling per step.  It
costs N^2 per time against the N^3 of a dense exponential, so it is taken when
CHAIN_COST * nnz(A) * max(1, ||t_max A||_1) <= N^2.  A generator with
spectral factors, self-adjoint or one-way, always takes its spectral path.

With the lumped (positive diagonal) mass, exp(-t A) >= 0 for every t > 0
exactly when A is real with nonpositive off-diagonal entries;
``sign_witness`` reads that criterion from A or from K, and an entry
A_ij > 0 is the lattice witness u+ = e_j, u- = e_i (Berman and Plemmons,
*Nonnegative Matrices*).  The positivity scan decides from the
witness alone and reports the propagator's extremes at the requested times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, NumericalError

#: Relative channel coupling above which ``factorization_residual`` refuses.
BLOCK_TOL = 1e-10

#: The scan's sparse chain costs about CHAIN_COST * nnz(A) * max(1, ||t_max A||_1)
#: per column of E where a dense exponential per time costs N^2 (fitted to
#: timings of both on 2D and 3D forms of 162 to 1250 dofs, one BLAS thread).
CHAIN_COST = 25

#: Rounding band of the offender: entries within this fraction of the
#: largest |entry| above the minimum count as tied with it.
OFFENDER_BAND = 1e-12

#: Seed of numpy's global RNG while a scan runs ``expm_multiply``, whose
#: 1-norm estimate (``onenormest``) resamples columns with np.random.randint.
NORM_ESTIMATE_SEED = 0


class GeneratorOperator:
    """Generator A = Mass^-1 K and its propagators exp(-t A).

    ``spectral`` holds ``(groups, links)`` when exp(-t A) has the spectral
    form of the module docstring, None otherwise: per group of channels
    ``(dofs, lam, W, W_inv)`` with the group's block of A equal to
    W diag(lam) W_inv (``dofs`` is ``slice(None)`` for a self-adjoint
    generator, its one group), and per one-way link ``(g, h, X)`` with
    X = V_g^H Mass^-1/2 K_gh Mass^-1/2 V_h.  A form's generator computes its
    factors from the dense K of its Hermitian test when it is built, and its
    dense A on first read.  ``csr`` holds the entries of A in CSR form (built
    from A when not given).  A, the factors and the CSR arrays are read-only,
    so one generator can be shared.
    """

    def __init__(self, A=None, spectral=None, csr=None):
        """From a dense A, its CSR, or both, and the factors ``spectral``."""
        import scipy.sparse

        if A is not None:
            A = np.asarray(A)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ValueError("generator must be square")
            if not np.all(np.isfinite(A)):
                raise NumericalError("non-finite entries in the generator")
            A = _read_only(A)
            if csr is None:
                csr = scipy.sparse.csr_matrix(A)
        elif csr is None:
            raise ValueError("a generator needs A or its CSR")
        self._A = A
        self.spectral = None if spectral is None else _read_only_factors(spectral)
        self.csr = csr
        for arr in (csr.data, csr.indices, csr.indptr):
            arr.flags.writeable = False

    @classmethod
    def from_discrete_form(cls, dform):
        """The form's generator, built once and kept with the form."""
        return dform.memo("generator", lambda: cls._of_form(dform))

    @classmethod
    def _of_form(cls, dform):
        import scipy.sparse

        real = dform.is_real()
        mass = dform.dof_mass
        K = dform.K.toarray()
        if real:
            K = K.real
        stored = dform.K.data.real if real else dform.K.data
        tol = 1e-12 * max(1.0, float(np.abs(stored).max(initial=0.0)))
        asym = np.abs(K - K.conj().T)
        hermitian = asym.max(initial=0.0) <= tol
        plan = None if hermitian else _one_way_plan(np.abs(K), asym, dform.m, tol)
        del asym        # freed before the eigendecompositions
        if hermitian:   # A is similar to S = Mass^-1/2 K Mass^-1/2
            root = np.sqrt(mass)
            lam, V = np.linalg.eigh(K / np.outer(root, root))
            spectral = (((slice(None), lam, V / root[:, None], V.conj().T * root),), ())
        else:
            spectral = None if plan is None else _one_way_factors(K, mass, *plan)
        # the same complex division per stored entry, so the CSR equals Mass^-1 K bit for bit
        data = dform.K.data / np.repeat(mass, np.diff(dform.K.indptr))
        if real:    # a contiguous real copy, not a view holding the complex bytes
            data = data.real.copy()
        csr = scipy.sparse.csr_matrix((data, dform.K.indices, dform.K.indptr), shape=K.shape)
        return cls(spectral=spectral, csr=csr)

    @property
    def A(self):
        """The dense generator (built from the CSR on first read)."""
        if self._A is None:
            self._A = _read_only(self.csr.toarray())
        return self._A

    @property
    def ndof(self):
        return self.csr.shape[0]

    @property
    def norm1(self):
        # column sums in row order, as a dense column sum adds them
        sums = np.bincount(self.csr.indices, weights=np.abs(self.csr.data), minlength=self.ndof)
        return float(sums.max(initial=0.0))

    @property
    def method(self):
        """How propagators are computed: 'spectral' or 'expm'."""
        return "expm" if self.spectral is None else "spectral"

    def propagator(self, t):
        """exp(-t A)."""
        t = float(t)
        if self.spectral is None:
            import scipy.linalg

            return _finite(scipy.linalg.expm(-t * self.A))
        groups, links = self.spectral
        blocks = [(W * np.exp(-t * lam)) @ W_inv for _, lam, W, W_inv in groups]
        if not links and len(groups) == 1:
            return _finite(blocks[0])
        E = np.zeros((self.ndof,) * 2, dtype=np.result_type(*blocks, *(x for *_, x in links)))
        for (dofs, *_), block in zip(groups, blocks):
            E[dofs[:, None], dofs] = block
        for g, h, X in links:
            (rows, lam, W, _), (cols, mu, _, W_inv) = groups[g], groups[h]
            E[rows[:, None], cols] = -_matmul(_matmul(W, X * _phi(t, lam, mu)), W_inv)
        return _finite(E)

    def apply(self, t, u):
        """exp(-t A) u: matrix-vector products with the spectral factors, or
        the dense exponential times u."""
        u = np.asarray(u)
        if self.spectral is None:
            return self.propagator(t) @ u
        t = float(t)
        groups, links = self.spectral
        cols = u.reshape(self.ndof, -1)
        split = np.iscomplexobj(u) and not any(
            np.iscomplexobj(f) for f in _factor_arrays((groups, links)))
        if split:       # real factors take the real and imaginary parts as real columns
            cols = np.hstack([cols.real, cols.imag])
        coef = [W_inv @ cols[dofs] for dofs, _, _, W_inv in groups]
        parts = [W @ (np.exp(-t * lam)[:, None] * c) for (_, lam, W, _), c in zip(groups, coef)]
        if not links and len(groups) == 1:
            out = parts[0]
        else:
            out = np.zeros(cols.shape, dtype=np.result_type(*parts, *(x for *_, x in links)))
            for (dofs, *_), part in zip(groups, parts):
                out[dofs] = part
            for g, h, X in links:
                (rows, lam, W, _), mu = groups[g], groups[h][1]
                out[rows] -= W @ ((X * _phi(t, lam, mu)) @ coef[h])
        if split:
            half = out.shape[1] // 2
            out = out[:, :half] + 1j * out[:, half:]
        return _finite(out.reshape(u.shape))


def _one_way_plan(size, asym, m, tol):
    """The groups of channels (their dofs) and the links (g, h) of a one-way
    coupling, or None, from |K| and |K - K^H|.  Channels in two-way contact
    (a block of K above ``tol`` each way) form a group; the plan exists when
    every group's diagonal block is Hermitian (``asym`` at most ``tol``) and
    no group both receives a block from another group and sends one."""
    n = len(size) // m      # the largest entry of each channel block, one axis at a time
    size, skew = (a.reshape(n, m, n * m).max(axis=0).reshape(m, n, m).max(axis=1) > tol
                  for a in (size, asym))
    label, contact = np.arange(m), size & size.T | np.eye(m, dtype=bool)
    for _ in range(m):      # each channel takes the smallest label of its two-way contacts
        label = np.where(contact, label, m).min(axis=1)
    same = label[:, None] == label
    pairs = {(label[c], label[d]) for c, d in zip(*np.nonzero(size & ~same))}
    if (skew & same).any() or {g for g, _ in pairs} & {h for _, h in pairs}:
        return None
    ids = list(np.unique(label))
    channel = label[np.arange(len(asym)) % m]
    groups = tuple(_read_only(np.flatnonzero(channel == g)) for g in ids)
    return groups, tuple(sorted((ids.index(g), ids.index(h)) for g, h in pairs))


def _one_way_factors(K, mass, groups, links):
    """``(groups, links)`` factors of the dense stiffness K along a plan of
    ``_one_way_plan``: one ``eigh`` per group of S = Mass^-1/2 K Mass^-1/2,
    real where the group's block is."""
    root = np.sqrt(mass)

    def block(rows, cols):
        return K[rows[:, None], cols] / np.outer(root[rows], root[cols])

    factors, bases = [], []
    for dofs in groups:
        S = block(dofs, dofs)
        lam, V = np.linalg.eigh(S if S.imag.any() else S.real)
        factors.append((dofs, lam, V / root[dofs, None], V.conj().T * root[dofs]))
        bases.append(V)
    links = tuple((g, h, _matmul(bases[g].conj().T, _matmul(block(groups[g], groups[h]),
                                                             bases[h])))
                  for g, h in links)
    return tuple(factors), links


def _matmul(a, b):
    """a @ b, a real matrix times a complex one as two real products."""
    if (a.dtype.kind == "c") == (b.dtype.kind == "c"):
        return a @ b
    if a.dtype.kind == "c":
        return a.real @ b + 1j * (a.imag @ b)
    return a @ b.real + 1j * (a @ b.imag)


def _phi(t, lam, mu):
    """Phi_ab = int_0^t exp(-(t - s) lam_a) exp(-s mu_b) ds, as
    t exp(-t min(lam_a, mu_b)) (1 - exp(-z)) / z with z = t |lam_a - mu_b|:
    no cancellation for close eigenvalues and no overflow for far ones."""
    z = t * np.abs(lam[:, None] - mu)
    ratio = np.divide(-np.expm1(-z), z, out=np.ones_like(z), where=z > 0)
    return t * np.exp(-t * np.minimum(lam[:, None], mu)) * ratio


def _factor_arrays(spectral):
    groups, links = spectral
    return [f for _, *fs in groups for f in fs] + [X for *_, X in links]


def _read_only_factors(spectral):
    groups, links = spectral
    return (tuple((dofs, *map(_read_only, fs)) for dofs, *fs in groups),
            tuple((g, h, _read_only(X)) for g, h, X in links))


def _read_only(arr):
    view = arr.view()
    view.flags.writeable = False
    return view


def _finite(E):
    if not np.all(np.isfinite(E)):
        raise NumericalError("matrix exponential overflowed")
    return E


def expm_apply(gen, t, u):
    """Apply the propagator exp(-t A) to a state vector, 0 < t < inf."""
    if not 0 < t < np.inf:      # NaN fails every comparison
        raise ValueError("time must be positive and finite")
    return gen.apply(t, u)


def sign_witness(A):
    """Why exp(-t A) is not entrywise nonnegative for all t > 0, or None.

    ``('lattice', i, j, Re A_ij)`` for the largest off-diagonal real part,
    else ``('nonreal', i, j, Im A_ij)`` for the largest |imaginary part|, each
    counted only above the rounding tolerance 1e-12 * max(1, max |A|).  A
    dense or sparse A; the mass is a positive diagonal, so K gives the same
    signs.  Ties within ``OFFENDER_BAND`` go to the smallest (i, j).
    """
    import scipy.sparse

    coo = scipy.sparse.coo_matrix(A)
    scale = max(1.0, float(np.abs(coo.data).max(initial=0.0)))
    for kind, vals in (("lattice", np.where(coo.row != coo.col, coo.data.real, -np.inf)),
                       ("nonreal", np.abs(coo.data.imag))):
        top = float(vals.max(initial=-np.inf))
        if top > 1e-12 * scale:
            tied = np.flatnonzero(vals >= top - OFFENDER_BAND * scale)
            k = tied[np.lexsort((coo.col[tied], coo.row[tied]))[0]]
            value = coo.data[k].real if kind == "lattice" else coo.data[k].imag
            return kind, int(coo.row[k]), int(coo.col[k]), float(value)
    return None


@dataclass(frozen=True)
class PositivityReport:
    times: tuple
    min_entry: float            # most negative real part over all entries/times
    max_imag_entry: float
    offender: tuple             # (t, value, row, col) or None
    witness: tuple              # sign_witness of the generator, or None
    verdict: str                # SIGN-PATTERN-OK | NEGATIVE-FOUND | NONREAL-FOUND
    per_time: tuple             # (min real part, max |imag part|) at each time
    propagator: str             # spectral | expm | expm_multiply

    @property
    def positive(self):
        return self.verdict == "SIGN-PATTERN-OK"


def _scan_propagators(gen, times, norm1):
    """The path and the pairs (t, exp(-t A)) at the sorted distinct times:
    the generator's spectral propagators when it has them; otherwise one
    sparse chain when its cost rule (CHAIN_COST) says that is cheaper than a
    dense exponential per time, else the dense exponentials."""
    times = sorted(set(times))
    if (gen.method == "expm"
            and CHAIN_COST * gen.csr.nnz * max(1.0, times[-1] * norm1) <= gen.ndof ** 2):
        return "expm_multiply", _chain(gen.csr, times)
    return gen.method, ((t, gen.propagator(t)) for t in times)


def _expm_multiply(A, B):
    """``scipy.sparse.linalg.expm_multiply(A, B)`` under numpy's global RNG
    seeded with NORM_ESTIMATE_SEED, the caller's state restored after: the
    result does not depend on that state, and the call does not move it."""
    import scipy.sparse.linalg

    state = np.random.get_state()
    np.random.seed(NORM_ESTIMATE_SEED)
    try:
        return scipy.sparse.linalg.expm_multiply(A, B)
    finally:
        np.random.set_state(state)


def _chain(A, times):
    E, prev = np.eye(A.shape[0], dtype=A.dtype), 0.0
    for t in times:
        E = _finite(_expm_multiply(-(t - prev) * A, E))
        prev = t
        yield t, E


def _extremes(E, tol):
    """Min real part, max |imag part| and the offender (value, row, col) of
    one propagator, the offender None unless the minimum is below tolerance."""
    scale = float(np.abs(E).max(initial=0.0))
    re = E.real
    val = float(re.min())
    imag = float(np.abs(E.imag).max(initial=0.0)) if np.iscomplexobj(E) else 0.0
    if val >= -((1e-9 * scale) if tol is None else tol):
        return val, imag, None
    # the smallest (row, col) among the entries tied with the minimum, so
    # that summation order cannot move the offender
    tied = re <= val + OFFENDER_BAND * scale
    i, j = np.unravel_index(np.argmax(tied), re.shape)
    return val, imag, (float(re[i, j]), int(i), int(j))


def positivity_scan(gen, times=None, tol=None):
    """Decide entrywise nonnegativity of exp(-t A), t > 0, from the sign
    pattern of A, and report the propagator's extremes at the given times.

    Verdicts: SIGN-PATTERN-OK when ``sign_witness`` finds nothing;
    NEGATIVE-FOUND with a reproducible offender when a tested time shows a
    negative entry or a lattice witness A_ij > 0 exists; NONREAL-FOUND
    otherwise; without a witness a negative sampled entry is rounding.  The
    offender is taken at the first time, in the caller's order, whose minimum
    entry is below the tolerance: the smallest (row, col) among the entries
    within ``OFFENDER_BAND`` times the largest |entry| of that minimum.  When
    no tested time shows one, it is the witness entry at
    t = A_ij / (2 ||A||_1^2), where |(A^k)_ij| <= ||A||_1^k bounds the Taylor
    remainder below t A_ij / 2.  Each distinct time's propagator is computed
    once, by the path that ``propagator`` names.  Each ``expm_multiply``
    call runs under a fixed seed of numpy's global RNG, whose state it
    restores, so the report does not depend on the caller's draws.
    """
    norm1 = gen.norm1
    if times is None:
        times = tuple(t / max(norm1, 1e-30) for t in (1e-2, 1e-1, 1.0))
    times = tuple(float(t) for t in times)
    if not times or not all(0 < t < np.inf for t in times):
        raise ValueError("times must be nonempty, positive and finite")
    witness = sign_witness(gen.csr)
    method, propagators = _scan_propagators(gen, times, norm1)
    stats = {t: _extremes(E, tol) for t, E in propagators}
    per_time = tuple(stats[t][:2] for t in times)
    offender = None
    if witness is not None:
        offender = next(((t,) + stats[t][2] for t in times if stats[t][2]), None)
    if offender is None and witness and witness[0] == "lattice":
        _, i, j, a = witness
        t = a / (2.0 * norm1 ** 2)
        col = _expm_multiply(-t * gen.csr, np.eye(1, gen.ndof, j)[0])
        offender = (t, float(col[i].real), i, j)
    verdict = ("SIGN-PATTERN-OK" if witness is None
               else "NEGATIVE-FOUND" if offender else "NONREAL-FOUND")
    min_entry = min(val for val, _ in per_time)
    max_imag = max(imag for _, imag in per_time)
    return PositivityReport(times, min_entry, max_imag, offender,
                            witness, verdict, per_time, method)


def _apply(dform, t, u):
    """exp(-t A) u on a discrete form, 0 < t < inf: by the generator's spectral
    factors, or by a dense exponential computed once per form and time."""
    if not 0 < t < np.inf:
        raise ValueError("time must be positive and finite")
    gen = GeneratorOperator.from_discrete_form(dform)
    if gen.method == "spectral":
        return gen.apply(t, u)
    return dform.memo(("propagator", float(t)), lambda: gen.propagator(t)) @ u


def factorization_residual(dform, scalar_dforms, t, u):
    """Relative gap between the block propagator and the channelwise scalar
    propagators: || exp(-tA) u - stack_n exp(-tA_n) u_n || / ||u||.

    Requires m one-channel forms on the block form's grid (ValueError
    otherwise) and the assembled block stiffness to be channel-decoupled; a
    coupling entry above ``BLOCK_TOL * ||K||`` raises ContractViolation.
    The check and each generator are kept with their forms; a self-adjoint
    generator applies its spectral factors, any other keeps one dense
    propagator per time, so a further state costs 2 (1 + m) or 1 + m
    matrix-vector products.
    """
    m = dform.m
    if len(scalar_dforms) != m:
        raise ValueError(f"need {m} scalar systems")
    if any(sf.m != 1 or sf.grid != dform.grid for sf in scalar_dforms):
        raise ValueError("scalar systems must be one-channel forms on the block form's grid")
    scale, coupling = dform.memo("channel coupling", lambda: (
        float(np.abs(dform.K.data).max(initial=0.0)), dform.channel_coupling_max()))
    if coupling > BLOCK_TOL * max(scale, 1.0):
        raise ContractViolation(
            f"stiffness couples channels (max coupling {coupling:.3e})"
        )
    u = np.asarray(u, dtype=complex)
    full = _apply(dform, t, u)
    out = np.zeros_like(full)
    for ch, sf in enumerate(scalar_dforms):
        out[ch::m] = _apply(sf, t, u[ch::m])
    denom = float(np.linalg.norm(u))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(full - out) / denom)
