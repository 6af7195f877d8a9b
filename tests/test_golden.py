"""Golden CLI transcripts: exit code, stdout and stderr of a fixed set of
commands, pinned by sha256.

The verify, reproduce and CT12 digests were taken from the program
before the integer Gram forms (GramMatrix as (scale, entries),
VectorSet.m, the gcd-reduced embedded block) replaced the Fraction ones;
the E8 and D4 embed and E8 spectrum digests before the embedded code
became a plain PairSpectrum; the seven export-coords digests when
export-coords began writing each point's Harm_2 image in an orthonormal
basis, in place of rows of an LDL^T of the embedded Gram (a deliberate
change of the exported frame); the E8 digest without a rank line
(NO_RANK_LINE) as `verify --lattice E8 --matrix-cap 10 --decimal 5`,
before verify stopped accepting --decimal and then --matrix-cap.  A
refactor that changes any byte of output fails here, naming the
command.  Regenerate the table only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from sphdesign import report
from sphdesign.cli import main

_SMALL = ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8", "CT12")

COMMANDS = (
    [f"verify --lattice {name}" for name in _SMALL]
    + [f"verify --lattice {name} --format json" for name in _SMALL]
    + [
        "embed --lattice CT12",
        "embed --lattice E8 --format json",
        "embed --lattice D4 --decimal 3",
        "spectrum --lattice CT12",
        "spectrum --lattice E8 --format json",
        "reproduce --example 1",
        "reproduce --example 1 --format json",
        "reproduce --example 2",
        "reproduce --example 2 --format json",
        "export-coords --lattice A2",
        "export-coords --lattice D4",
        "export-coords --lattice E8",
        "export-coords --lattice CT12",
        "export-coords --lattice E8 --decimal 9",
        "export-coords --lattice E6dual",
        "export-coords --lattice CT12 --decimal 6",
    ]
)

GOLDEN = {
    'verify --lattice A2':
        'fd10abd24db0b297e7b497f953c8745e49ef5ccfef1f465b36496e90bee6e9c4',
    'verify --lattice D4':
        'f0f907d41edfd817d30aee3fbdd20314c751063898940ae8785569a2c290c9f9',
    'verify --lattice E6':
        'c340de0cb1d6cb0b83ae1cc4ac06a5b206aae2f905b53481de1fe57f59df7dd6',
    'verify --lattice E6dual':
        '73d77fe2ba618b33a98766ecc75d50eb4480c9861d03d9ef5f7424308417e55f',
    'verify --lattice E7':
        '354f9da254d7ef713e80c4bfb4bf3920f4fff3847317194b4f28c27fa5182554',
    'verify --lattice E7dual':
        '4e8300d4cb33630ce66dc0486338f4a2db8ac566dbbce8cbcdbba0c2b1518aa5',
    'verify --lattice E8':
        '7507ca0e33541c0fa2f34f6222f69007c9bd750d94d650a182c659a687fce460',
    'verify --lattice CT12':
        'a9767ff8a661aaa0064eb78c573b1fc2c6c9fe4c5f9c7a0730e099bd5113b612',
    'verify --lattice A2 --format json':
        '13f30a50b5c26716301c8dcf6739c3af9d32dde61b45719d665d4b4d21ae726e',
    'verify --lattice D4 --format json':
        'ce7b69f5800496ae4e4ac88084d7b0785ffa87311e4fd1bebed72fa3ee2677d5',
    'verify --lattice E6 --format json':
        '44609da21c5827664cbfa9f484427c7daa63852112daaa16cdb476d7630fe2c7',
    'verify --lattice E6dual --format json':
        '8acc565d145ac847e4c69bb9a03325938da89247fb718a98e1ddaefb22fe8430',
    'verify --lattice E7 --format json':
        'aa96bbe6140399f95170a73b503efe1afdc79b30f44ccb14b3ed7d86ef42898a',
    'verify --lattice E7dual --format json':
        '6661c533142c1e5ae032f5280760099777d82a7694fc25ceef2bb28314cec8b2',
    'verify --lattice E8 --format json':
        '5140dea00e1f0d4e7e404137de01d048a24b6006aa3c24ef7df32bd2539bf97a',
    'verify --lattice CT12 --format json':
        '3dd776aa4b0799d6fd695279185182c27ced2a403587fe62338984cfdb85a09b',
    'embed --lattice CT12':
        '95973c333d93b7f0a9ff428b3a6ffc91535446df16fdc5faa62527654f13ca09',
    'embed --lattice E8 --format json':
        '355cbcbf490e87f932531012be8459537f5cf936816aa44130a97532f3f098e3',
    'embed --lattice D4 --decimal 3':
        'b6eeda73ef4695073334ac3babf0f7c25f50c1fc4b2e4548f505ffb1a67bab9f',
    'spectrum --lattice CT12':
        'e163fc7c62bac51683c420a8ad17ba2698a3bb9f8d9c39cc10066dffba9b865c',
    'spectrum --lattice E8 --format json':
        '827f998e4b330c10ca4f407a8bce2f2fe3e5b51420e56fd0ec115cf0d5aff320',
    'reproduce --example 1':
        '45776115758d0c7d467a0ccd5f62d2959790c7ced9049c135fe42cc715d2ee4e',
    'reproduce --example 1 --format json':
        '3e80ca974926da35167d0787d08f1972d29accb51ce6b9b5469c9de6313cb2e0',
    'reproduce --example 2':
        '63ed25a17ba8096a9bdb83d16fa7cd506a6dd8b27f4b9b32a223ea99bddef7c9',
    'reproduce --example 2 --format json':
        'ea28702b9c3f47c216ec524722926aa8517442b4d180e0d39f8d1672a560f0aa',
    'export-coords --lattice A2':
        '2c49d83bc9520f3ccf1d1a5777a64f8e7cb4fb6cd064e9caad7599c5af6e9c7f',
    'export-coords --lattice D4':
        'bbf5c6cd5bcd7834375140e6034e395871853821e4c88e976320adb4ff903d9c',
    'export-coords --lattice E8':
        '82adfe25a480168a0226cf442a05cc46f7060280c5cb3a0fd3686810b4e4a17d',
    'export-coords --lattice CT12':
        'ecc9c7e890444cd5d63189e72a26c8bf901f71ee0d6ed63e2dee92677124d4b6',
    'export-coords --lattice E8 --decimal 9':
        '3e5846aea617c5f1796591b8b0fa779704a045ca07f74fb14688713f786c9cf1',
    'export-coords --lattice E6dual':
        'f15b84114c5ef455ae479ea27180e4cc6c19b35aab745e02d98c6132b8ccf27d',
    'export-coords --lattice CT12 --decimal 6':
        'a4efe61b88890d475c5237045a25597e85f151e63503c6a0e10a011532779026',
}


# sha256 of the file `minvec --lattice NAME --out F` writes, taken from the
# program before vector files were written from int64 rows (BW16, E7dual)
# and before the small lattices' rows were held as Python ints (E8)
VECTOR_FILES = {
    "BW16":
        "9716316f78d18f1b9f81b6df711d48145c65f75ca2fc5d68ed6e2d7834c8d44c",
    "E7dual":
        "ab3c8ce1eaa36a45bb24d5b0628470295a34fa52a23f84c0ad0f4c9c4873ef07",
    "E8":
        "d7228d070ab9640878ac5cb937e3de6b285b7b3dce8c774df2e128041bb8f3d3",
}


def transcript_digest(command: str) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    blob = "\0".join((str(code), out.getvalue(), err.getvalue()))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_transcript(command):
    assert transcript_digest(command) == GOLDEN[command], \
        f"output of `sphdesign {command}` changed"


# verify --lattice E8 with the rank line limited to half-sets of 10 points,
# so that E8's 120-point half-set prints none
NO_RANK_LINE = ("verify --lattice E8", 10,
                "f80d648be6318b1f7dba5197443aa57a36a75b8991bca45ea7fd546007f73b7f")


def test_golden_transcript_without_rank_line(monkeypatch):
    command, limit, digest = NO_RANK_LINE
    monkeypatch.setattr(report, "_RANK_LINE_MAX", limit)
    assert transcript_digest(command) == digest


@pytest.mark.parametrize("name", sorted(VECTOR_FILES))
def test_golden_vector_file(name, tmp_path):
    out = tmp_path / f"{name}.vecs"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["minvec", "--lattice", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VECTOR_FILES[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for command in COMMANDS:
        print(f"    {command!r}:\n        {transcript_digest(command)!r},")
    print("}")
    command, report._RANK_LINE_MAX, _ = NO_RANK_LINE
    print(f"NO_RANK_LINE: {transcript_digest(command)!r}")
