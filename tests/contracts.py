"""Every pinned run of the knotforge CLI, and main(), which runs each one
through the installed console script.

test_cli.py runs each CONTRACTS row in process.  This module imports only
the standard library and knotforge.cli: on Linux a spawned child's peak RSS
starts from its parent's, so a runner that loaded pytest would hide every
row's own peak under its 39-41 MB.  Run it with

    PYTHONPATH=tests python -c "import contracts as t; t.main()"
"""

import hashlib
import os
import pathlib
import resource
import sys
import tempfile
import time
from typing import NamedTuple

from knotforge.cli import GENUS_LIMIT


class Contract(NamedTuple):
    """One pinned CLI run: its arguments, exit code and the sha256 of its
    stdout, why those bytes are pinned, and the text of a --config file
    that the run reads, if any."""

    name: str
    args: str
    code: int
    digest: str
    why: str
    config: str | None = None

    def argv(self, directory) -> list[str]:
        """The command line; a row with a config text first writes it to a
        file in `directory`, which the command line names."""
        if self.config is None:
            return self.args.split()
        path = pathlib.Path(directory, "knotforge.conf")
        path.write_text(self.config, encoding="utf-8")
        return ["--config", str(path), *self.args.split()]


DESK_DEMO = (
    "family --genus 2 --type H --kappa 2,1 --alpha 1,1 --i-range 2592,5184,10368"
    " --chi-bridge -6 --chi-nu -6 --format csv"
)
DESK_DEMO_DIGEST = "23b78c6453961b4a01c87e9b081010648598ec1d1618d906622f6a13013ca686"
CLAMP = "family --genus 3 --type S --kappa 2,1 --alpha 1,1 --i-range 646,648,649,650"
REJECTED = "family --kappa 2,1 --alpha 1,1 --chi-nu 0 --n-range 1:3 --i-range 1:2"
MIXED = "family --kappa 2,1 --alpha 1,1 --chi-bridge 0 --n-range 0:1 --i-range 0,5000"
# The only pins of CLI output outside the benchmark: test_contract runs each
# row of CONTRACTS in process, and main() runs each row of CONTRACTS and
# SLOW_CONTRACTS through the installed console script.
CONTRACTS = (
    Contract(
        "verify-graphs-v2-e6", "verify-graphs --v-max 2 --e-budget 6", 0,
        "1e8084d5e9a135de48dc56db7cb0825e246fe1015d33d18110611dcb65e5dfb6",
        "the benchmark's verify request: both claims, every cell enumerated",
    ),
    Contract(
        "verify-graphs", "verify-graphs", 0,
        "c69ebaee0a43f76c846cb088aa62f2ba06fa0368d58ab811e1dbb962a730f53d",
        "the defaults reach (1,7), (3,5) and (3,6), where the vertex walk of"
        " is_connected takes more than one step",
    ),
    Contract(
        "desk-demo", f"{DESK_DEMO} --n-range 4752,5000,10000", 0,
        DESK_DEMO_DIGEST,
        "the README's desk-demo catalog",
    ),
    Contract(
        "desk-demo-config", DESK_DEMO, 0,
        DESK_DEMO_DIGEST,
        "the desk-demo catalog, with its n range read from a config file",
        config="# the desk-demo n range\nn-range = 4752,5000,10000\n",
    ),
    Contract(
        "clamp-txt", f"{CLAMP} --n-range=-652:-644 --format txt", 0,
        "12b9d65fe635ca087cb4d3f1137992096cb49f653a87163f482c6d1a89e09c57",
        "the bridge bound's clamp at |n| = 72|chi|g = 648, with n < 0: bridge_lower"
        " is 0 at 648, 1/216 at 649 and 1/54 at 652",
    ),
    Contract(
        "clamp-csv", f"{CLAMP} --n-range 644:652 --format csv", 0,
        "4f4c8ddd39928ae31026a971d0a220829731af29699f78dbcdbe75a83bf394e6",
        "the bridge bound's clamp at |n| = 648, with n > 0",
    ),
    Contract(
        "plumb-gamma", "plumb --construction gamma --genus 5", 0,
        "1d897049d5d97d37dc8b9144e9c342bb5439fa97ff41b2be4b2e7517d2b204c3",
        "a gamma trace, which plumb writes from the table that replay reads it with",
    ),
    Contract(
        "plumb-eta", "plumb --construction eta --genus 4", 0,
        "54f9c55ddf158e0fd17b195b013dd27bc8d30a473c90a198d7ff2b719dffa826",
        "an eta trace, written from the same table",
    ),
    Contract(
        "rejected-txt", REJECTED, 1,
        "5510a24f874323a100bfdf5a19921759a9bd3e733e389d45f07828f8f2c61c82",
        "a request rejected at chi(Q) >= 0 carries its error on each of its six rows",
    ),
    Contract(
        "rejected-csv", f"{REJECTED} --format csv", 1,
        "56b6de1e287379377897c5697abba35aa0afcfc4dd16db826d1a82ce3af40233",
        "the rejected request in csv",
    ),
    Contract(
        "mixed-txt", MIXED, 1,
        "6b9c18c384d37e5d6c9967e2f4145a54a917c6decd1db9b8db33b31dc737aceb",
        "an accepted request with chi_Q_bridge >= 0 errs only on its strong rows:"
        " two of its four",
    ),
    Contract(
        "mixed-csv", f"{MIXED} --format csv", 1,
        "040a7d977c444629c38e68cbaae2bfaeecbe5598d02591124b6fc150cab92620",
        "the mixed-verdict request in csv",
    ),
    Contract(
        "s-exceptional-csv",
        "family --genus 2 --type S --kappa 2,1 --alpha 1,1 --n-range=-2:1 --i-range 0,700"
        " --format csv", 0,
        "52c34761663f6d6a429ad443f0e656a1bd67fc7aa4fa0b5a35d03877bb624c3a",
        "the S family's quoted seifert and surgery, and exceptional=true on strong rows"
        " at n = -2, -1, 0",
    ),
    Contract(
        "not-i-uniform-txt",
        "family --genus 3 --type H --kappa 3,1 --alpha 1,2 --n-range 0:2 --i-range 0,5000"
        " --format txt", 0,
        "2706bbb6ccfff4f6e7cacfee25ff044e37081d582c373ad4012efa498b6578e5",
        "an alpha other than (1,1) with no --chi-bridge: the not i-uniform reason",
    ),
    Contract(
        "product-disk-csv",
        "family --genus 2 --type S --kappa 2,1 --alpha 1,0 --n-range 1:2 --i-range 5000"
        " --format csv", 0,
        "0d01bb22f024bf29e5b447bb6ff54bdf2f7fd81e4e1e97b49eb837e8a0cd4a53",
        "a product-disk alpha: its reason, and no statement line",
    ),
    Contract(
        "twist", "twist --kappa -3,2 --alpha 1,1", 0,
        "58e5f32a625b2c76df6a9b72cd25027de9948ff191d74f2a025d30ed5716ff69",
        "a negative first coordinate, given as its own argument, is a value",
    ),
    Contract(
        "twist-n-positive", "twist --kappa 0,1 --alpha 1,1 --n 4", 0,
        "b34b74b77312578a0e68e91d35830439a2b3e1b5756ce349c869cc9be29b36eb",
        "kappa = (0,1) twisted 4 times along alpha = (1,1): tau = (4,5)",
    ),
    Contract(
        "twist-n-negative", "twist --kappa -3,2 --alpha 1,1 --n -2", 0,
        "518f6064124d250d734ae6700d2fe1d99ae81d36f640d39bc5e8919f631c6076",
        "w(kappa, alpha) < 0 and n < 0: dehn_twist is twist(kappa, alpha, s*n)"
        " with s the sign of w",
    ),
    Contract(
        "bounds-disk", "bounds disk --i 1000", 0,
        "7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d",
        "the disk bound at the default chi, GAMMA_DISK = -6: 4",
    ),
    Contract(
        "bounds-annulus", "bounds annulus --i 5000 --chi -2", 0,
        "19b8d5c59e421f037fe563007c7254eb8d98bc221b278c3db3e5fdbbfd52e273",
        "the annulus bound past its threshold 216|chi| = 432: 33",
    ),
    Contract(
        "bounds-bridge", "bounds bridge --n 2161 --chi -3 --genus 2", 0,
        "aa99db4c051fc557659ea5f31b8f8ead16d62cbf0041222cf46e489b655daa1e",
        "a bridge bound that is not an integer prints as a Fraction: 1729/216",
    ),
    Contract(
        "bounds-bridge-integer", "bounds bridge --n 4320 --chi -6 --genus 2", 0,
        "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8",
        "an integral bridge bound prints as an integer: 4320/432 - 2 = 8",
    ),
    Contract(
        "bounds-n-strong", "bounds n-strong --chi -6", 0,
        "a04b8779fae076e2078abac87ed405080395dc27b5bf3bd4693ebfb6ecf215eb",
        "the strong threshold 216|chi|: 1296",
    ),
    Contract(
        "bounds-parallel-classes", "bounds parallel-classes --chi -6", 0,
        "7ee29791fc17e986b97128845622b077fb45e349fdb80523fac9dba879b4ad60",
        "the parallelism class bound -3 chi: 18",
    ),
    Contract(
        "bounds-edges-threshold", "bounds edges-threshold --vertices 2 --chi 0", 0,
        "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
        "the parallel-edges threshold 3V max(1 - chi, 1): 6",
    ),
    Contract(
        "bounds-threshold",
        "bounds threshold --chi -6 --f-k 5 --f-l 2 --f-m 2 --chi-f-hat 0 --delta-k 3", 0,
        "e4fa6ce80a34303b9dda7a6e66c7017b5b0bb55314df23f5e8f33378c419ec70",
        "the distance threshold with every count set: 6*2*36*(5*3 + 2 - 0 + 2) = 8208",
    ),
    Contract(
        "bounds-threshold-defaults", "bounds threshold --chi -6", 0,
        "fd8584da38448364d37cbe0261edd1b1f3169a3330014391b622986237a20867",
        "the distance threshold at the default counts, f_K = 0, f_M = 1, chi(F^) = 2 and"
        " Delta_K = 0: 6*1*36*(1*1 + 1 - 2 + 2) = 432",
    ),
)
# Pinned runs too slow for tier-1; only main() runs them.
SLOW_CONTRACTS = (
    Contract(
        "verify-graphs-e7", "verify-graphs --e-budget 7 --work-budget 3000000", 0,
        "7168de6067c7de7c8428535b0f7f0ff8628d2d34af035fd508afa9b04b714fe8",
        "the E <= 7 report enumerates (2,7) and (3,7), with 945,945 and 2,162,160 raw"
        " candidates, in about 4 s on 2 vCPUs",
    ),
    Contract(
        "plumb-eta-100000", "plumb --construction eta --genus 100000", 0,
        "5869817f9385aec87946e6b29390bc5fdf92e7c0db6d0f09f9775c04eb23ba33",
        "the genus-100000 eta build prints 4,700,105 bytes in under a second on 2 vCPUs",
    ),
    Contract(
        "plumb-gamma-100000", "plumb --construction gamma --genus 100000", 0,
        "d78aa683c44a711d5c48bea86f8cc8d759a6899cde9a13f1ff470453025c702d",
        "the genus-100000 gamma build also runs what eta never does: the gamma2 base"
        " pair, and the step that plumbs eta_99998 onto it"
        ' ("plumb spans_a=0 spans_b=0 nonsep=1")',
    ),
    Contract(
        "plumb-eta-genus-limit", f"plumb --construction eta --genus {GENUS_LIMIT}", 0,
        "3ef344cf21c906e7728d022d236ee93534fcf494e487ef6f33ec899036aea177",
        "the largest certificate plumb builds: 47,000,107 bytes in 2,000,002 lines, in"
        " about 1.4 s at about 136 MB peak RSS (the comment on cli.GENUS_LIMIT)",
    ),
)


def main() -> None:
    """Run every CONTRACTS and SLOW_CONTRACTS row through the installed
    knotforge console script, with warnings turned into errors, as
    test_contract runs a row in process: each must exit with its code,
    print its pinned bytes and print nothing to stderr.  Each row's line
    ends with its wall time and peak RSS, and a FAIL line is followed by
    the row's stderr.  A child's peak includes the runner's peak at spawn,
    which is printed last (about 18 MB): a row above it reads its own
    command's peak.  Exit 1 if any row differs."""
    failed = 0
    env = {**os.environ, "PYTHONWARNINGS": "error"}
    with tempfile.TemporaryDirectory() as tmp:
        for row in CONTRACTS + SLOW_CONTRACTS:
            # stdout goes to a file hashed in blocks, so that the runner never
            # holds a large output; wait4 reads this child's resource usage
            with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
                dup2 = [(os.POSIX_SPAWN_DUP2, f.fileno(), fd) for fd, f in ((1, out), (2, err))]
                argv = ["knotforge", *row.argv(tmp)]
                start = time.perf_counter()
                _, status, usage = os.wait4(os.posix_spawnp(argv[0], argv, env, file_actions=dup2), 0)
                seconds = time.perf_counter() - start
                sha256 = hashlib.sha256()
                out.seek(0)
                while block := out.read(1 << 16):
                    sha256.update(block)
                err.seek(0)
                stderr = err.read().decode(errors="replace")
            code, digest = os.waitstatus_to_exitcode(status), sha256.hexdigest()
            ok = (code, digest, stderr) == (row.code, row.digest, "")
            peak = f"{usage.ru_maxrss / 1024:.1f} MB"
            print("ok  " if ok else "FAIL", code, digest, row.name, f"({seconds:.2f} s, {peak})")
            print(stderr, end="")  # empty on an ok row
            failed += not ok
    print(f"runner peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    sys.exit(1 if failed else 0)
