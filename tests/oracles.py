"""Independent reference computations used to validate the package.

Everything here deliberately avoids the production code paths: string
probabilities come from literal enumeration over the unit alphabet,
divergences and symbol counts from the chain rule over the conditional
tables and an enumerated context mass, regression coefficients from the
pseudoinverse, variance shares from factorial ordering enumeration, and
spline values from a hand-written tridiagonal natural-spline solve.  Slow is fine; independent is the
point.  The exceptions are the n-row references for the k-space kernels
(``lstsq_rsquared``, ``gcv_search_nrow``, the fold recipe
``nrow_fold`` and the pooled recipe ``nrow_pooled``), the plain GCV search
(``gcv_search_reference``) and the per-row token path
(``reference_aggregate``, ``reference_score``, ``choice_sample_string``,
``reference_documents``),
and the per-line TSV readers (``reference_read``, ``reference_external``,
which decode the whole file before they read a line):
they are the direct computations the fast forms replace, kept so that
the fast forms can be held to them.  The two GCV searches solve each
candidate with ``cholesky_solve``, the smooth fit's own numpy solve
applied to one system, so that they hold the search logic to the bit;
``test_smooth.TestCholeskySolve`` holds that solve to scipy's.  Two
helpers are no references: ``table_from_lists`` builds test tables with
the package's own label coding, and ``fit_columns`` (the pooled recipe's
fit) is the package's QR fit.
"""

from __future__ import annotations

import io
import itertools
import math
from pathlib import Path

import numpy as np

from ctxpred.smooth import _lower_inverse


# -- literal string enumeration ------------------------------------------


def string_prob(lm, string):
    """Probability of a complete string as a product of table lookups."""
    p = 1.0
    state = ()
    for u in string:
        p *= lm.cond[state].get(u, 0.0)
        if p == 0.0:
            return 0.0
        state = lm.next_state(state, u)
    return p * lm.cond[state].get(lm.alphabet.eos, 0.0)


def enumerate_strings(lm, max_len):
    """All (string, probability) pairs up to max_len units, zeros skipped."""
    out = []
    for length in range(max_len + 1):
        for string in itertools.product(lm.alphabet.units, repeat=length):
            p = string_prob(lm, string)
            if p > 0.0:
                out.append((string, p))
    return out


def brute_prefix_mass(lm, prefix, max_len):
    """Sum of string probabilities over every string extending prefix."""
    prefix = tuple(prefix)
    total = 0.0
    for string, p in enumerate_strings(lm, max_len):
        if string[: len(prefix)] == prefix:
            total += p
    return total


def brute_expected_length(lm, max_len):
    """(estimate, captured_mass): truncated E[units per string]."""
    est = 0.0
    mass = 0.0
    for string, p in enumerate_strings(lm, max_len):
        est += len(string) * p
        mass += p
    return est, mass


def brute_unigram_counts(lm, max_len):
    """Expected symbol counts per string (eos included), truncated."""
    counts = {sym: 0.0 for sym in lm.alphabet.symbols}
    for string, p in enumerate_strings(lm, max_len):
        for u in string:
            counts[u] += p
        counts[lm.alphabet.eos] += p
    return counts


def brute_forward_kl(lm, q, max_len):
    """Truncated sum of p(u) log(p(u) / q-as-string(u))."""
    kl = 0.0
    for string, p in enumerate_strings(lm, max_len):
        logq = math.log(q.prob(lm.alphabet.eos))
        for u in string:
            logq += math.log(q.prob(u))
        kl += p * (math.log(p) - logq)
    return kl


def chain_rule_counts(lm, context_mass):
    """Expected symbol counts per string: each state's context mass times
    its conditionals, one ``lm.cond`` entry at a time."""
    counts = {sym: 0.0 for sym in lm.alphabet.symbols}
    for state, mass in zip(lm.states, context_mass):
        for sym, p in lm.cond[state].items():
            counts[sym] += mass * p
    return counts


def chain_rule_kl(lm, q, context_mass):
    """Forward KL from the model to q by the chain rule: each state's
    context mass times the KL of its conditionals to q.

    ``context_mass[i]`` is the prefix mass of the contexts in state
    ``lm.states[i]``; pass ``enumerated_context_mass``'s, so that the
    result does not read the visit solve.
    """
    kl = 0.0
    for state, mass in zip(lm.states, context_mass):
        for sym, p in lm.cond[state].items():
            kl += mass * p * (math.log(p) - math.log(q.prob(sym)))
    return kl


def brute_context_measure(lm, max_len, z):
    """{context: prefix_mass / Z} by literal enumeration, plus captured mass.

    The caller supplies the normalizer Z (total prefix mass over all
    contexts, equal to 1 + E[length]) from whatever independent route
    fits its fixture, e.g. a closed form or a deep 1-unit enumeration.
    """
    table = {}
    for length in range(max_len + 1):
        for ctx in itertools.product(lm.alphabet.units, repeat=length):
            mass = 1.0
            state = ()
            for u in ctx:
                mass *= lm.cond[state].get(u, 0.0)
                if mass == 0.0:
                    break
                state = lm.next_state(state, u)
            if mass > 0.0:
                table[ctx] = mass / z
    return table, sum(table.values())


# -- the per-row token path -------------------------------------------------


def reference_aggregate(rows):
    """Per-token mean reading time, one np.mean per (doc_id, token_idx).

    ``rows`` are (participant, doc_id, sentence_id, token_idx, token,
    rt_ms, skipped) tuples in file order.  Returns (doc_id, sentence_id,
    token_idx, token, rt_ms or None, n_readers) tuples in key order;
    the first row of a token gives its sentence_id and text.
    """
    by_key = {}
    for row in rows:
        by_key.setdefault((row[1], row[3]), []).append(row)
    out = []
    for (doc_id, token_idx), group in sorted(by_key.items()):
        read = [row[5] for row in group if not row[6]]
        rt = float(np.mean(read)) if read else None
        out.append((doc_id, group[0][2], token_idx, group[0][4], rt, len(read)))
    return out


def reference_score(tokens, lm):
    """Predictor values per token from conditional(), one call per row.

    ``tokens`` are (doc_id, sentence_id, token_idx, token) tuples in
    (doc_id, token_idx) order.  Returns one dict per token; spillover
    values are copied from the previous token of the same document and
    are None at document starts.
    """
    from ctxpred.lm import conditional, unigram_minimizer

    q = unigram_minimizer(lm)
    records = []
    context, key = [], None
    for doc_id, sentence_id, _, token in tokens:
        if key != (doc_id, sentence_id):
            context, key = [], (doc_id, sentence_id)
        surp = -math.log(conditional(lm, context, token))
        freq = -math.log(q.prob(token))
        records.append(
            {"doc_id": doc_id, "surprisal": surp, "frequency": freq,
             "pmi": freq - surp, "length": float(len(token))}
        )
        context.append(token)
    prev = None
    for rec in records:
        same_doc = prev is not None and prev["doc_id"] == rec["doc_id"]
        for name in ("surprisal", "frequency", "pmi", "length"):
            rec[f"prev_{name}"] = prev[name] if same_doc else None
        prev = rec
    return records


# -- the per-line TSV readers ----------------------------------------------


def reference_text_file(path):
    """The file as a text-mode file object, once the whole of it decodes
    as UTF-8; else the FormatError naming the file, the line (as text-mode
    reading counts lines) and the first byte that does not decode."""
    from ctxpred.errors import FormatError

    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = io.TextIOWrapper(io.BytesIO(data[:exc.start]), encoding="utf-8").read()
        raise FormatError(
            f"{path}:{before.count(chr(10)) + 1}: not UTF-8: "
            f"byte 0x{data[exc.start]:02x} ({exc.reason})"
        ) from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def table_from_lists(*, doc_id, token, participant=None, **columns):
    """A ``TokenTable`` from lists: the doc_id, token and participant
    strings become codes (doc_ids sorted, types and participants in order
    of first appearance), and the other columns arrays."""
    from ctxpred.corpus import TokenTable, label_codes

    doc_ids = tuple(sorted(set(doc_id)))
    types = tuple(dict.fromkeys(token))
    cols = {
        "doc": label_codes(doc_id, doc_ids),
        "token": label_codes(token, types),
        **{name: np.asarray(values) for name, values in columns.items()},
    }
    participants = ()
    if participant is not None:
        participants = tuple(dict.fromkeys(participant))
        cols["participant"] = label_codes(participant, participants)
    return TokenTable(cols, doc_ids, types, participants)


def reference_read(path, header, parse_line):
    """``corpus.read_tsv`` as a loop over the lines of the text file,
    every line through ``parse_line``: (table, line numbers, malformed)."""
    from ctxpred.corpus import FIELD_KINDS
    from ctxpred.errors import FormatError

    rows, lines, malformed = [], [], []
    with reference_text_file(path) as fh:
        head = fh.readline().rstrip("\n")
        if tuple(head.split("\t")) != header:
            raise FormatError(
                f"{path}: header must be {chr(9).join(header)!r}, got {head!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            row = parse_line(line)
            if isinstance(row, str):
                malformed.append((lineno, row))
            else:
                rows.append(row)
                lines.append(lineno)
    dtypes = {"index": np.int64, "value": float, "flag": bool}
    columns = {}
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        kind = FIELD_KINDS[name]
        columns[name] = values if kind == "label" else np.array(values, dtype=dtypes[kind])
    table = table_from_lists(**columns)
    return table, np.array(lines, dtype=np.int64), malformed


def reference_external(path):
    """The predictor file as {(doc_id, token_idx): (token, surprisal,
    frequency)}, read line by line; the first bad line raises."""
    from ctxpred.errors import FormatError
    from ctxpred.predictors import EXTERNAL_HEADER, external_row

    rows, last_idx = {}, {}
    with reference_text_file(path) as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split("\t")) != EXTERNAL_HEADER:
            raise FormatError(
                f"{path}: header must be {chr(9).join(EXTERNAL_HEADER)!r}, got {header!r}"
            )
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            row = external_row(line)
            if isinstance(row, str):
                raise FormatError(f"{path}:{lineno}: {row}")
            doc_id, token_idx, token, surp, freq = row
            if (doc_id, token_idx) in rows:
                raise FormatError(
                    f"{path}:{lineno}: duplicate key ({doc_id!r}, {token_idx})"
                )
            if doc_id in last_idx and token_idx <= last_idx[doc_id]:
                raise FormatError(
                    f"{path}:{lineno}: token_idx must increase within {doc_id!r}"
                )
            last_idx[doc_id] = token_idx
            rows[doc_id, token_idx] = (token, surp, freq)
    if not rows:
        raise FormatError(f"{path}: no predictor rows found")
    return rows


def choice_sample_string(lm, rng):
    """One string, each symbol drawn by rng.choice over its state's row."""
    state = ()
    out = []
    while True:
        row = lm.cond[state]
        symbols = list(row)
        probs = np.array([row[sym] for sym in symbols])
        sym = symbols[rng.choice(len(symbols), p=probs / probs.sum())]
        if sym == lm.alphabet.eos:
            return out
        out.append(sym)
        state = lm.next_state(state, sym)


def reference_documents(lm, rng, n_docs, doc_len):
    """``n_docs`` documents as ``corpus.sample_documents`` defines them,
    drawn sentence by sentence with one draw per symbol
    (``choice_sample_string``): each a list of sentences (unit lists),
    empty ones skipped, until it holds at least ``doc_len`` units."""
    docs = []
    for _ in range(n_docs):
        sentences, n_units = [], 0
        while n_units < doc_len:
            sentence = choice_sample_string(lm, rng)
            if sentence:
                sentences.append(sentence)
                n_units += len(sentence)
        docs.append(sentences)
    return docs


# -- memoryless closed forms ----------------------------------------------


def memoryless_expected_length(eos_prob):
    """E[length] for a memoryless model: (1 - p_eos) / p_eos."""
    return (1.0 - eos_prob) / eos_prob


def memoryless_length_tail(eos_prob, max_len):
    """Upper bound on the E[length] mass ignored beyond max_len.

    sum_{l > L} l (1-e)^l e  ==  (1-e)^{L+1} (L + 1 + (1-e)/e)
    by splitting l = (L+1) + j and summing two geometric series.
    """
    c = 1.0 - eos_prob
    return c ** (max_len + 1) * (max_len + 1 + c / eos_prob)


# -- regression oracles ----------------------------------------------------


def pinv_ols(x, y):
    """Least-squares coefficients via the Moore-Penrose pseudoinverse."""
    return np.linalg.pinv(x) @ y


def rsquared(x, y):
    """Plain in-sample R^2 of an intercept-plus-columns fit."""
    n = len(y)
    design = np.column_stack([np.ones(n), x]) if x.size else np.ones((n, 1))
    beta = pinv_ols(design, y)
    resid = y - design @ beta
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return 0.0
    return 1.0 - float(resid @ resid) / sst


def lstsq_rsquared(x, y):
    """In-sample R^2 of an intercept-plus-columns fit by ``lstsq`` on all
    n rows, with numpy's default cutoff for negligible singular values."""
    n = len(y)
    design = np.column_stack([np.ones(n), x])
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    centered = y - y.mean()
    sst = float(centered @ centered)
    return 0.0 if sst == 0.0 else 1.0 - float(resid @ resid) / sst


def lmg_by_orderings(columns, y, groups, r2=rsquared):
    """Variance shares by literal averaging over all group orderings.

    columns: dict name -> 1-d array; groups: dict group -> [names];
    r2(x, y) gives the R^2 of one nested fit.  Returns dict group ->
    share of R^2.
    """
    names = list(groups)
    shares = {g: 0.0 for g in names}
    orderings = list(itertools.permutations(names))
    for order in orderings:
        have = []
        r2_prev = 0.0
        for g in order:
            have = have + [c for c in groups[g]]
            x = np.column_stack([columns[c] for c in have])
            r2_now = r2(x, y)
            shares[g] += r2_now - r2_prev
            r2_prev = r2_now
    return {g: s / len(orderings) for g, s in shares.items()}


def cholesky_solve(m, b):
    """``m^-1 b`` for one symmetric positive definite ``m``, by the numpy
    expression the smooth fit applies to a stack of systems: the
    Cholesky factor L, its inverse by ``smooth._lower_inverse``, and
    L^-T L^-1 b.  A matrix that is not positive definite raises
    ``numpy.linalg.LinAlgError``."""
    inverse_factor = _lower_inverse(np.linalg.cholesky(m)[None])[0]
    return (inverse_factor.T @ inverse_factor) @ b


def gcv_search_nrow(columns, y, bases, grid, max_sweeps=10):
    """Coordinate-descent GCV search scoring every grid point with the
    n-row residual.  Returns (lambdas, coefficients) of the final solve.

    ``bases`` are the fitted terms' ``SplineBasis`` objects, so the design
    is the one the search runs on; the search itself and the residual
    follow the plain definition, and each candidate is solved on its
    own by ``cholesky_solve``.
    """
    n = y.size
    blocks, penalties, slices = [], [], []
    offset = 1
    for x, basis in zip(columns.values(), bases):
        raw = basis.design(x)[:, 1:]
        blocks.append(raw - raw.mean(axis=0))
        penalties.append(basis.penalty()[1:, 1:])
        slices.append(slice(offset, offset + basis.k - 1))
        offset += basis.k - 1
    x = np.hstack([np.ones((n, 1))] + blocks)
    xtx = x.T @ x
    rhs = np.column_stack([x.T @ y, xtx])

    def solve(lambdas):
        m = xtx.copy()
        for sl, pen, lam in zip(slices, penalties, lambdas):
            m[sl, sl] += lam * pen
        sol = cholesky_solve(m, rhs)
        beta = sol[:, 0]
        edf = float(np.trace(sol[:, 1:]))
        resid = y - x @ beta
        denom = n - edf
        gcv = math.inf if denom <= 1e-8 else n * float(resid @ resid) / denom ** 2
        return beta, gcv

    current = [grid[-1]] * len(bases)
    for _ in range(max_sweeps):
        changed = False
        for term in range(len(bases)):
            scores = []
            for lam in grid:
                trial = list(current)
                trial[term] = lam
                scores.append((solve(trial)[1], lam))
            lam = min(scores)[1]
            changed |= lam != current[term]
            current[term] = lam
        if not changed:
            break
    return tuple(current), solve(current)[0]


def gcv_search_reference(columns, y, bases, grid, max_sweeps=10):
    """The k-space coordinate-descent GCV search in its plain form: each
    candidate adds every penalty to X'X afresh and is solved on its own
    by ``cholesky_solve``, and the search runs full sweeps until
    a sweep changes nothing.  Returns the final fit's ``lambdas``,
    ``coefficients``, ``gcv``, ``edf`` and ``term_edf`` in a dict.

    ``bases`` are the terms' ``SplineBasis`` objects.  A singular
    system raises ``numpy.linalg.LinAlgError``.
    """
    n = y.size
    blocks, penalties, slices = [], [], []
    offset = 1
    for x, basis in zip(columns.values(), bases):
        raw = basis.design(x)[:, 1:]
        blocks.append(raw - raw.mean(axis=0))
        penalties.append(basis.penalty()[1:, 1:])
        slices.append(slice(offset, offset + basis.k - 1))
        offset += basis.k - 1
    x = np.hstack([np.ones((n, 1))] + blocks)
    xtx = x.T @ x
    centered = y - y.mean()
    sst = float(np.sum(centered ** 2))
    rhs = np.column_stack([x.T @ y, xtx])
    rhs_centered = np.column_stack([x.T @ centered, xtx])

    def gcv_of(sse, edf):
        denom = n - edf
        return math.inf if denom <= 1e-8 else n * sse / denom ** 2

    def solve(lambdas, b):
        m = xtx.copy()
        for sl, pen, lam in zip(slices, penalties, lambdas):
            if lam:
                m[sl, sl] += lam * pen
        sol = cholesky_solve(m, b)
        return sol[:, 0], sol[:, 1:]

    def score(lambdas):
        beta, influence = solve(lambdas, rhs_centered)
        sse = sst - 2.0 * float(beta @ rhs_centered[:, 0]) + float(beta @ xtx @ beta)
        return gcv_of(max(sse, 0.0), float(np.trace(influence)))

    current = [grid[-1]] * len(bases)
    for _ in range(max_sweeps):
        changed = False
        for term in range(len(bases)):
            scores = []
            for lam in grid:
                trial = list(current)
                trial[term] = lam
                scores.append((score(trial), lam))
            _, lam = min(scores)
            if lam != current[term]:
                current[term] = lam
                changed = True
        if not changed:
            break

    beta, influence = solve(current, rhs)
    resid = y - x @ beta
    sse = float(resid @ resid)
    edf_diag = np.diag(influence)
    edf = float(edf_diag.sum())
    return {
        "lambdas": tuple(current),
        "coefficients": beta,
        "gcv": gcv_of(sse, edf),
        "edf": edf,
        "term_edf": tuple(float(edf_diag[sl].sum()) for sl in slices),
    }


def normal_logpdf(x, mean, var):
    """Reference Gaussian log density (scipy.stats kept out on purpose:
    this file is imported by property tests that run it thousands of
    times, and the closed form is the textbook definition anyway)."""
    return -0.5 * math.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var)


# -- the n-row fold recipe -------------------------------------------------


def nrow_fold(raw, y, tr, te, columns):
    """One cross-validation fold of one linear model, on the n rows.

    Each source is standardized with its training mean and SD; an
    anchored column is the standardized source minus its least-squares
    component along the standardized anchor, both centred on the
    training rows and the fit replayed on the test rows; OLS is lstsq on
    the training rows, and the held-out score sums Normal log densities
    row by row.  ``columns`` lists (label, source, anchor or None).
    Returns the training R^2, the coefficients by label (intercept
    first), the mean held-out log density, its mean gain over the
    training-mean baseline, and each anchored column's training
    correlation with its anchor.
    """
    def standardized(name):
        mean, sd = raw[name][tr].mean(), raw[name][tr].std(ddof=1)
        return (raw[name][tr] - mean) / sd, (raw[name][te] - mean) / sd

    train, test, corr = [np.ones(tr.size)], [np.ones(te.size)], {}
    for label, source, anchor in columns:
        x_tr, x_te = standardized(source)
        if anchor is not None:
            z_tr, z_te = standardized(anchor)
            x_mean, z_mean = x_tr.mean(), z_tr.mean()
            alpha = ((x_tr - x_mean) @ (z_tr - z_mean)) / ((z_tr - z_mean) @ (z_tr - z_mean))
            x_tr = (x_tr - x_mean) - alpha * (z_tr - z_mean)
            x_te = (x_te - x_mean) - alpha * (z_te - z_mean)
            corr[label] = (x_tr @ z_tr) / math.sqrt((x_tr @ x_tr) * (z_tr @ z_tr))
        train.append(x_tr)
        test.append(x_te)
    x_tr, x_te = np.column_stack(train), np.column_stack(test)
    beta = np.linalg.lstsq(x_tr, y[tr], rcond=None)[0]
    resid = y[tr] - x_tr @ beta
    centred = y[tr] - y[tr].mean()
    variance = max(float(resid @ resid) / tr.size, 1e-8)
    base_variance = max(float(centred @ centred) / tr.size, 1e-8)
    pred = x_te @ beta
    llh = sum(normal_logpdf(v, m, variance) for v, m in zip(y[te], pred)) / te.size
    base = sum(normal_logpdf(v, y[tr].mean(), base_variance) for v in y[te]) / te.size
    labels = ["intercept", *(label for label, _, _ in columns)]
    return {
        "r2": 1.0 - float(resid @ resid) / float(centred @ centred),
        "coeffs": dict(zip(labels, map(float, beta))),
        "llh": llh,
        "delta_llh": llh - base,
        "anchor_corr": corr,
    }


def fit_columns(columns, y):
    """``ols_fit`` of ``y`` on a design built from the named columns."""
    from ctxpred.regression import DesignMatrix, ols_fit

    return ols_fit(DesignMatrix.build(columns), y)


def nrow_pooled(raw, y, columns):
    """The pooled fit of one linear model in original units, on the n rows.

    Each anchored column is the source's in-sample residual against the
    anchor (``sample_orthogonalize``), and the fit is one QR of the n rows
    of the design and response (``fit_columns``).  ``columns`` lists
    (label, source, anchor or None).  Returns the ``FitResult``.
    """
    from ctxpred.hilbert import sample_orthogonalize

    return fit_columns({
        label: raw[source] if anchor is None else sample_orthogonalize(raw[source], raw[anchor])
        for label, source, anchor in columns
    }, y)


# -- natural cubic spline oracle -------------------------------------------


def natural_spline_eval(knots, values, x):
    """Evaluate the natural cubic interpolating spline by a direct solve.

    Solves the standard tridiagonal system for the second derivatives
    (zero at both ends), then evaluates the piecewise cubic.  Points
    outside the knot range extrapolate linearly with the boundary slope.
    """
    knots = np.asarray(knots, dtype=float)
    values = np.asarray(values, dtype=float)
    k = len(knots)
    h = np.diff(knots)
    second = np.zeros(k)
    if k > 2:
        a = np.zeros((k - 2, k - 2))
        rhs = np.zeros(k - 2)
        for i in range(1, k - 1):
            r = i - 1
            a[r, r] = (h[i - 1] + h[i]) / 3.0
            if r > 0:
                a[r, r - 1] = h[i - 1] / 6.0
            if r < k - 3:
                a[r, r + 1] = h[i] / 6.0
            rhs[r] = (values[i + 1] - values[i]) / h[i] - (
                values[i] - values[i - 1]
            ) / h[i - 1]
        second[1:-1] = np.linalg.solve(a, rhs)

    def eval_one(t):
        if t <= knots[0]:
            slope = (values[1] - values[0]) / h[0] - h[0] * second[1] / 6.0
            return values[0] + slope * (t - knots[0])
        if t >= knots[-1]:
            slope = (values[-1] - values[-2]) / h[-1] + h[-1] * second[-2] / 6.0
            return values[-1] + slope * (t - knots[-1])
        i = int(np.searchsorted(knots, t, side="right") - 1)
        i = min(i, k - 2)
        hi = h[i]
        lo, up = knots[i], knots[i + 1]
        return (
            second[i] * (up - t) ** 3 / (6.0 * hi)
            + second[i + 1] * (t - lo) ** 3 / (6.0 * hi)
            + (values[i] / hi - second[i] * hi / 6.0) * (up - t)
            + (values[i + 1] / hi - second[i + 1] * hi / 6.0) * (t - lo)
        )

    return np.array([eval_one(t) for t in np.atleast_1d(np.asarray(x, dtype=float))])


def scipy_natural_design(knots, x):
    """Cardinal natural cubic basis at x from scipy's ``CubicSpline``,
    continued linearly beyond the end knots with the end value and slope."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(knots, np.eye(knots.size), bc_type="natural")
    lo, hi = knots[0], knots[-1]
    out = spline(np.clip(x, lo, hi))
    for edge, outside in ((lo, x < lo), (hi, x > hi)):
        if np.any(outside):
            out[outside] = spline(edge) + np.outer(x[outside] - edge, spline(edge, nu=1))
    return out
