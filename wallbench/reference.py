"""Reference rows: neither gated nor end-to-end, recorded beside each run.

* RSA-512 PKCS#1 v1.5 / SHA-1 sign and verify through ``crypto.rsa``
  (pure Python) and through the installed ``cryptography`` (OpenSSL),
  with the same key; the signatures must be byte-identical.  OpenSSL is
  the floor the pure-Python path could approach.
* A fixed pure-Python calibration loop, so a slow or noisy machine shows
  in the record.
* Measured share-generation : assembly : RSA-verify ratios of the threshold
  scheme beside ``crypto.costmodel``'s Table-3 ratios.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Optional, Sequence

from repro.crypto import costmodel
from repro.crypto.rsa import RsaPrivateKey
from repro.crypto.shoup import ThresholdKeyShare

try:
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding, rsa
except ImportError:  # the OpenSSL row is skipped, never faked
    rsa = None  # type: ignore[assignment]

MESSAGE = b"wallbench reference message"


def _median_us(fn: Callable[[], object], repeats: int, inner: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner * 1e6)
    return statistics.median(samples)


def rsa_rows(key: RsaPrivateKey) -> Dict[str, Optional[float]]:
    public = key.public_key
    signature = key.sign(MESSAGE)
    rows: Dict[str, Optional[float]] = {
        "repro_sign_us": _median_us(lambda: key.sign(MESSAGE), 5, 40),
        "repro_verify_us": _median_us(lambda: public.verify(MESSAGE, signature), 5, 40),
        "openssl_sign_us": None,
        "openssl_verify_us": None,
    }
    if rsa is None:
        return rows
    numbers = rsa.RSAPrivateNumbers(
        p=key.prime_p,
        q=key.prime_q,
        d=key.private_exponent,
        dmp1=rsa.rsa_crt_dmp1(key.private_exponent, key.prime_p),
        dmq1=rsa.rsa_crt_dmq1(key.private_exponent, key.prime_q),
        iqmp=rsa.rsa_crt_iqmp(key.prime_p, key.prime_q),
        public_numbers=rsa.RSAPublicNumbers(key.exponent, key.modulus),
    )
    ossl = numbers.private_key(unsafe_skip_rsa_key_validation=True)
    ossl_public = ossl.public_key()
    pad, sha1 = padding.PKCS1v15(), hashes.SHA1()
    ossl_signature = ossl.sign(MESSAGE, pad, sha1)
    if ossl_signature != signature:
        raise AssertionError("OpenSSL and crypto.rsa signatures differ")
    rows["openssl_sign_us"] = _median_us(lambda: ossl.sign(MESSAGE, pad, sha1), 5, 200)
    rows["openssl_verify_us"] = _median_us(
        lambda: ossl_public.verify(signature, MESSAGE, pad, sha1), 5, 200
    )
    return rows


def calibration_ms() -> float:
    """Median of five runs of a fixed pure-Python integer loop."""

    def loop() -> int:
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        loop()
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def shoup_ratios(shares: Sequence[ThresholdKeyShare]) -> Dict[str, float]:
    """Share generation : assembly : verify, each relative to verify."""
    public = shares[0].public
    chosen = shares[: public.t + 1]
    sig_shares = [s.generate_share(MESSAGE) for s in chosen]
    signature = public.assemble(MESSAGE, sig_shares)
    share_us = _median_us(lambda: chosen[0].generate_share(MESSAGE), 5, 10)
    assemble_us = _median_us(lambda: public.assemble(MESSAGE, sig_shares), 5, 10)
    verify_us = _median_us(lambda: public.verify_signature(MESSAGE, signature), 5, 40)
    return {
        "share_us": share_us,
        "assemble_us": assemble_us,
        "verify_us": verify_us,
        "measured_share_per_verify": share_us / verify_us,
        "measured_assemble_per_verify": assemble_us / verify_us,
        "table3_share_per_verify": (
            costmodel.GENERATE_SHARE_BARE / costmodel.TABLE3_VERIFY_SIGNATURE
        ),
        "table3_assemble_per_verify": (
            costmodel.TABLE3_ASSEMBLE / costmodel.TABLE3_VERIFY_SIGNATURE
        ),
    }
