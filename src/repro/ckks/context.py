"""CkksContext: the library's main entry point for encrypted compute.

A context owns the prime chains, the key material (generated lazily,
per level, mirroring the paper's Hemera evk pool), and provides every
homomorphic operation of Sec. 2.1.2: HAdd/HSub, HMult (with a
selectable key-switching method), PAdd/PMult, CMult/CAdd, HRot,
conjugation, rescaling and hoisted rotation batches.

Example
-------
>>> from repro.ckks import CkksContext, toy_params
>>> ctx = CkksContext(toy_params(), seed=1)
>>> ct = ctx.encrypt([1.0, 2.0, 3.0, 4.0] * 8)
>>> ct2 = ctx.rescale(ctx.multiply(ct, ct))
>>> ctx.decrypt(ct2)[:4].real.round(3)
array([ 1.,  4.,  9., 16.])
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.ckks import encoding, keys, modmath, primes, rns
from repro.ckks.ciphertext import Ciphertext, Plaintext
from repro.ckks.keys import HYBRID, KLSS, KeySwitchKey, SecretKey
from repro.ckks.keyswitch.hoisting import hoisted_rotations
from repro.ckks.keyswitch.hybrid import (
    _mod_down_rescale_ready,
    hybrid_decompose,
    hybrid_key_switch,
    key_mult_accumulate,
    mod_down_rescale_pair,
)
from repro.ckks.keyswitch.klss import klss_key_switch
from repro.ckks.params import CkksParams
from repro.ckks.rns import RnsPoly

# A method selector maps (operation, level, hoisting count) to a
# key-switching method name; Aether supplies one (repro.core.aether).
MethodSelector = Callable[[str, int, int], str]


def _default_selector(op: str, level: int, hoisting: int) -> str:
    return HYBRID


class CkksContext:
    """Keys, prime chains and homomorphic operations for one party."""

    def __init__(self, params: CkksParams, seed: int | None = None,
                 method_selector: MethodSelector | None = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.method_selector = method_selector or _default_selector
        self._build_moduli()
        self.secret_key = keys.generate_secret_key(params, self.rng)
        self.public_key = keys.generate_public_key(
            params, self.secret_key, self.q_chain, self.rng)
        self._evk_cache: dict[tuple, KeySwitchKey] = {}
        self._source_cache: dict[tuple, np.ndarray] = {}

    # -- setup ----------------------------------------------------------
    def _build_moduli(self) -> None:
        p = self.params
        n = p.ring_degree
        used: set[int] = set()
        first = primes.ntt_primes(1, p.first_prime_bits, n, exclude=used)
        used.update(first)
        scale_primes = primes.ntt_primes(p.max_level, p.prime_bits, n,
                                         exclude=used)
        used.update(scale_primes)
        specials = primes.ntt_primes(p.num_special_primes, p.prime_bits, n,
                                     exclude=used)
        used.update(specials)
        wide_count = max(p.klss_alpha_tilde, 1)
        wide = primes.ntt_primes(wide_count, p.klss_word_bits, n,
                                 exclude=used)
        self.q_chain: tuple[int, ...] = tuple(first + scale_primes)
        self.p_moduli: tuple[int, ...] = tuple(specials)
        self.t_moduli: tuple[int, ...] = tuple(wide)

    def moduli_at(self, level: int) -> tuple[int, ...]:
        """The ciphertext basis ``(q_0 .. q_level)``."""
        if not 0 <= level <= self.params.max_level:
            raise ValueError(f"level {level} out of range")
        return self.q_chain[: level + 1]

    # -- evaluation keys (the Hemera pool's contents) --------------------
    def _source_coeffs(self, target) -> np.ndarray:
        if target not in self._source_cache:
            if target == "mult":
                coeffs = self.secret_key.squared_coeffs()
            else:
                _, galois = target
                coeffs = self.secret_key.automorphism_coeffs(galois)
            self._source_cache[target] = coeffs
        return self._source_cache[target]

    def evaluation_key(self, method: str, level: int,
                       target="mult") -> KeySwitchKey:
        """Fetch (or lazily generate) a switching key.

        ``target`` is ``"mult"`` for relinearisation or
        ``("galois", g)`` for the rotation/conjugation element ``g``.
        """
        if method not in keys.METHODS:
            raise ValueError(f"unknown key-switching method {method!r}")
        cache_key = (method, level, target)
        if cache_key not in self._evk_cache:
            source = self._source_coeffs(target)
            q_moduli = self.moduli_at(level)
            if method == HYBRID:
                key = keys.generate_hybrid_key(
                    self.params, self.secret_key, source,
                    q_moduli, self.p_moduli, self.rng)
            else:
                key = keys.generate_klss_key(
                    self.params, self.secret_key, source,
                    q_moduli, self.t_moduli, self.rng)
            self._evk_cache[cache_key] = key
        return self._evk_cache[cache_key]

    def rotation_key(self, method: str, level: int,
                     steps: int) -> KeySwitchKey:
        g = encoding.rotation_galois_element(self.params.ring_degree, steps)
        return self.evaluation_key(method, level, ("galois", g))

    # -- encoding / encryption ------------------------------------------
    def encode(self, message: Sequence, level: int | None = None,
               scale: float | None = None) -> Plaintext:
        """Encode complex slots into a plaintext at ``level``.

        Raises :class:`~repro.ckks.encoding.EncodingError` (a
        ``ValueError``) for NaN/inf slots.
        """
        p = self.params
        if level is None:
            level = p.max_level
        if scale is None:
            scale = float(2 ** p.scale_bits)
        coeffs = encoding.encode_to_coeffs(message, p.ring_degree, scale)
        poly = rns.from_big_ints(list(coeffs), self.moduli_at(level),
                                 p.ring_degree).to_eval()
        return Plaintext(poly, scale, level)

    def decode(self, plaintext: Plaintext,
               num_slots: int | None = None) -> np.ndarray:
        """Decode a plaintext's slots.  Its coefficients come from limb
        0 when they are that small (:func:`~repro.ckks.rns.
        compose_small`), which a decryption with noise budget left
        always is; otherwise from the exact CRT over every limb."""
        poly = plaintext.poly.to_coeff()
        coeffs = rns.compose_small(poly)
        if coeffs is None:
            coeffs = rns.compose_crt(poly)
        return encoding.decode_from_coeffs(
            coeffs, self.params.ring_degree, plaintext.scale, num_slots)

    def encrypt(self, message, level: int | None = None,
                scale: float | None = None) -> Ciphertext:
        """Public-key encryption of a vector (or Plaintext)."""
        if not isinstance(message, Plaintext):
            message = self.encode(message, level=self.params.max_level,
                                  scale=scale)
        pt = message
        p = self.params
        n = p.ring_degree
        moduli = self.q_chain
        v = modmath.random_ternary(n, self.rng)
        v_poly = RnsPoly.from_int_coeffs(v, moduli).to_eval()
        e0 = RnsPoly.from_int_coeffs(
            modmath.random_discrete_gaussian(n, self.rng, p.sigma),
            moduli).to_eval()
        e1 = RnsPoly.from_int_coeffs(
            modmath.random_discrete_gaussian(n, self.rng, p.sigma),
            moduli).to_eval()
        pt_full = pt.poly
        if pt.level != p.max_level:
            raise ValueError("encode at max level before encrypting")
        c0 = self.public_key.b * v_poly + e0 + pt_full
        c1 = self.public_key.a * v_poly + e1
        ct = Ciphertext(c0, c1, pt.scale, p.max_level)
        if level is not None and level < p.max_level:
            ct = self.level_down(ct, level)
        return ct

    def decrypt(self, ct: Ciphertext,
                num_slots: int | None = None) -> np.ndarray:
        """Decrypt and decode back to complex slots."""
        s = self.secret_key.as_rns(ct.moduli)
        message_poly = ct.c0 + ct.c1 * s
        pt = Plaintext(message_poly, ct.scale, ct.level)
        return self.decode(pt, num_slots)

    # -- level / scale management ----------------------------------------
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by the last prime; drops one level."""
        if ct.level == 0:
            raise ValueError("cannot rescale below level 0")
        dropped = ct.moduli[-1]
        c0 = rns.exact_rescale(ct.c0.to_coeff()).to_eval()
        c1 = rns.exact_rescale(ct.c1.to_coeff()).to_eval()
        return Ciphertext(c0, c1, ct.scale / dropped, ct.level - 1)

    def level_down(self, ct: Ciphertext, target_level: int) -> Ciphertext:
        """Drop limbs without dividing (modulus switching down)."""
        if target_level > ct.level:
            raise ValueError("cannot raise level by dropping limbs")
        keep = target_level + 1
        return Ciphertext(ct.c0.drop_limbs(keep), ct.c1.drop_limbs(keep),
                          ct.scale, target_level)

    # -- arithmetic --------------------------------------------------------
    @staticmethod
    def _align(a: Ciphertext, b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        if a.level == b.level:
            return a, b
        raise ValueError(
            f"operands at different levels ({a.level} vs {b.level}); "
            "use level_down first")

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self._align(a, b)
        return Ciphertext(a.c0 + b.c0, a.c1 + b.c1, a.scale, a.level)

    def align_for_add(self, a: Ciphertext,
                      b: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Bring two ciphertexts to a common level and, when their
        scales differ only by rescale drift (< 1%), a common nominal
        scale, so they can be added.  Larger mismatches raise."""
        lo = min(a.level, b.level)
        a = self.level_down(a, lo)
        b = self.level_down(b, lo)
        if a.scale != b.scale:
            ratio = abs(a.scale - b.scale) / max(a.scale, b.scale)
            if ratio > 0.01:
                raise ValueError(
                    f"scales differ by {ratio:.1%}; rescale first")
            b = Ciphertext(b.c0, b.c1, a.scale, b.level)
        return a, b

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        a, b = self._align(a, b)
        return Ciphertext(a.c0 - b.c0, a.c1 - b.c1, a.scale, a.level)

    def negate(self, ct: Ciphertext) -> Ciphertext:
        return Ciphertext(-ct.c0, -ct.c1, ct.scale, ct.level)

    def add_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        self._check_plain(ct, pt)
        return Ciphertext(ct.c0 + pt.poly, ct.c1.copy(), ct.scale, ct.level)

    def multiply_plain(self, ct: Ciphertext, pt: Plaintext) -> Ciphertext:
        """PMult: ciphertext x plaintext; scale multiplies."""
        self._check_plain(ct, pt, match_scale=False)
        return Ciphertext(ct.c0 * pt.poly, ct.c1 * pt.poly,
                          ct.scale * pt.scale, ct.level)

    def multiply_scalar(self, ct: Ciphertext, scalar: float,
                        scale: float | None = None) -> Ciphertext:
        """CMult: multiply every slot by one constant."""
        if scale is None:
            scale = float(2 ** self.params.scale_bits)
        value = int(round(scalar * scale))
        c0 = ct.c0 * value
        c1 = ct.c1 * value
        return Ciphertext(c0, c1, ct.scale * scale, ct.level)

    def add_scalar(self, ct: Ciphertext, scalar: float) -> Ciphertext:
        """CAdd: add one constant to every slot (at the current scale)."""
        value = int(round(scalar * ct.scale))
        # A constant polynomial evaluates to ``value mod q_i`` at every
        # NTT point, so its EVAL form needs no coefficient list and no
        # transform.
        poly = RnsPoly.zeros(self.params.ring_degree, ct.moduli, rns.EVAL)
        poly.data[:] = [[value % q] for q in ct.moduli]
        return Ciphertext(ct.c0 + poly, ct.c1.copy(), ct.scale, ct.level)

    def _check_plain(self, ct: Ciphertext, pt: Plaintext,
                     match_scale: bool = True) -> None:
        if pt.level != ct.level:
            raise ValueError("plaintext level does not match ciphertext")
        if match_scale and abs(pt.scale - ct.scale) / ct.scale > 1e-9:
            raise ValueError("plaintext scale does not match ciphertext")

    def plain_for(self, ct: Ciphertext, message,
                  scale: float | None = None) -> Plaintext:
        """Encode a message aligned with ``ct``'s level (PMult operand)."""
        if scale is None:
            scale = float(2 ** self.params.scale_bits)
        return self.encode(message, level=ct.level, scale=scale)

    # -- multiplication & rotation (key-switching consumers) --------------
    def _resolve_method(self, method: str | None, op: str, level: int,
                        hoisting: int = 0) -> str:
        if method in keys.METHODS:
            return method
        if method not in (None, "auto"):
            raise ValueError(f"unknown method {method!r}")
        return self.method_selector(op, level, hoisting)

    def multiply(self, a: Ciphertext, b: Ciphertext,
                 method: str | None = None) -> Ciphertext:
        """HMult with relinearisation via the chosen method."""
        a, b = self._align(a, b)
        method = self._resolve_method(method, "HMult", a.level)
        d0 = a.c0 * b.c0
        d1 = a.c0 * b.c1 + a.c1 * b.c0
        d2 = a.c1 * b.c1
        key = self.evaluation_key(method, a.level, "mult")
        delta0, delta1 = self._key_switch(d2, key, method)
        return Ciphertext(d0 + delta0, d1 + delta1,
                          a.scale * b.scale, a.level)

    def square(self, ct: Ciphertext, method: str | None = None) -> Ciphertext:
        return self.multiply(ct, ct, method=method)

    def multiply_rescale(self, a: Ciphertext, b: Ciphertext,
                         method: str | None = None,
                         rescales: int = 1) -> Ciphertext:
        """HMult immediately followed by ``rescales`` rescale(s).

        The hybrid path runs the fused ModDown+Rescale kernel
        (:func:`~repro.ckks.keyswitch.hybrid.mod_down_rescale_pair`):
        the dropped primes join the ModDown's auxiliary basis, so the
        rescale's four full-basis transforms and its base conversion
        disappear into the key-switch tail — the executable form of
        the trace optimiser's ``merge_rescale`` rewrite.  Where the
        fused kernel does not apply (KLSS, object-path moduli,
        ``rescales >= level``), falls back to ``multiply`` followed by
        ``rescale`` — same ciphertext up to the documented sub-unit
        rounding difference between ``round(round(z/P)/D)`` and
        ``round(z/(P*D))``.
        """
        if rescales < 1:
            raise ValueError("need at least one rescale to fuse")
        a, b = self._align(a, b)
        method = self._resolve_method(method, "HMult", a.level)
        if method == HYBRID and a.level >= rescales:
            key = self.evaluation_key(HYBRID, a.level, "mult")
            d2 = a.c1 * b.c1
            decomposed = hybrid_decompose(
                d2.to_coeff(), key, self.params.alpha)
            acc0, acc1 = key_mult_accumulate(decomposed, key)
            if _mod_down_rescale_ready(acc0, acc1, key.aux_count,
                                       rescales):
                d0 = a.c0 * b.c0
                d1 = a.c0 * b.c1 + a.c1 * b.c0
                c0, c1 = mod_down_rescale_pair(
                    acc0, acc1, d0, d1, key.aux_count, rescales)
                scale = a.scale * b.scale
                for q in a.moduli[a.level + 1 - rescales:a.level + 1]:
                    scale /= q
                return Ciphertext(c0, c1, scale, a.level - rescales)
        out = self.multiply(a, b, method=method)
        for _ in range(rescales):
            out = self.rescale(out)
        return out

    def _key_switch(self, poly: RnsPoly, key: KeySwitchKey, method: str):
        if method == HYBRID:
            return hybrid_key_switch(poly, key, self.params.alpha)
        return klss_key_switch(poly, key)

    def rotate(self, ct: Ciphertext, steps: int,
               method: str | None = None) -> Ciphertext:
        """HRot: cyclic left rotation of the slot vector."""
        if steps % self.params.num_slots == 0:
            return ct.copy()
        method = self._resolve_method(method, "HRot", ct.level)
        g = encoding.rotation_galois_element(self.params.ring_degree, steps)
        return self._apply_galois(ct, g, method)

    def conjugate(self, ct: Ciphertext,
                  method: str | None = None) -> Ciphertext:
        """Complex-conjugate every slot."""
        method = self._resolve_method(method, "HRot", ct.level)
        g = encoding.conjugation_galois_element(self.params.ring_degree)
        return self._apply_galois(ct, g, method)

    def _apply_galois(self, ct: Ciphertext, g: int,
                      method: str) -> Ciphertext:
        # The ciphertext polys are in evaluation form, so both
        # automorphisms are AutoPlan point gathers — no NTTs.
        key = self.evaluation_key(method, ct.level, ("galois", g))
        c0_rot = ct.c0.automorphism(g)
        c1_rot = ct.c1.automorphism(g)
        delta0, delta1 = self._key_switch(c1_rot, key, method)
        return Ciphertext(c0_rot + delta0, delta1, ct.scale, ct.level)

    def hoisted_rotate(self, ct: Ciphertext, steps: Iterable[int],
                       method: str | None = None) -> list[Ciphertext]:
        """Rotate by each step, sharing one decomposition (hoisting).

        Repeated steps are computed once and returned as copies in
        the requested order.
        """
        steps = list(steps)
        method = self._resolve_method(method, "HRot", ct.level, len(steps))
        n = self.params.ring_degree
        galois = [encoding.rotation_galois_element(n, r) for r in steps]
        unique = list(dict.fromkeys(galois))
        key_map = {g: self.evaluation_key(method, ct.level, ("galois", g))
                   for g in unique}
        rotated = dict(zip(unique, hoisted_rotations(
            ct, unique, key_map, self.params.alpha)))
        seen: set[int] = set()
        results = []
        for g in galois:
            results.append(rotated[g].copy() if g in seen else rotated[g])
            seen.add(g)
        return results

    # -- diagnostics -------------------------------------------------------
    def noise_infinity(self, ct: Ciphertext, expected) -> float:
        """Max slot error against an expected vector (for tests)."""
        got = self.decrypt(ct)
        exp = np.asarray(expected, dtype=np.complex128).ravel()
        reps = self.params.num_slots // len(exp)
        return float(np.max(np.abs(got - np.tile(exp, reps))))
