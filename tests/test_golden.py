"""Golden CLI transcripts: exit code, stdout and stderr of a fixed set of
commands, pinned by sha256.

The verify, reproduce, export-coords and CT12 digests were taken from the
program before the integer Gram forms (GramMatrix as (scale, entries),
VectorSet.m, the gcd-reduced embedded block) replaced the Fraction ones;
the E8 and D4 embed and E8 spectrum digests before the embedded code
became a plain PairSpectrum; the E6dual and CT12 --decimal 6
export-coords digests before export-coords stopped building the
N/2 x N/2 embedded Gram block; the E8 --matrix-cap 10 digest with a
--decimal 5 that verify never read, before verify stopped accepting it.
A refactor that changes any byte of output fails here, naming the
command.  Regenerate the table only for an
intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from sphdesign.cli import main

_SMALL = ("A2", "D4", "E6", "E6dual", "E7", "E7dual", "E8", "CT12")

COMMANDS = (
    [f"verify --lattice {name}" for name in _SMALL]
    + [f"verify --lattice {name} --format json" for name in _SMALL]
    + [
        "verify --lattice E8 --matrix-cap 10",
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
    'verify --lattice E8 --matrix-cap 10':
        'f80d648be6318b1f7dba5197443aa57a36a75b8991bca45ea7fd546007f73b7f',
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
        'e32b229ec21a36597d8bf41bb9e41f734a79cbfe44374b7c1aba7e87e2a008f1',
    'export-coords --lattice D4':
        'c6166eb594844fdfde9984a77b7736d2710fabc740e0b4d1298a65478e338855',
    'export-coords --lattice E8':
        'fdfcde57de8b35f0492fecef4100c51b58b5839b070ecf1a76b7adb9d0b3b56c',
    'export-coords --lattice CT12':
        'bd964a84e119a0e10a223b0b8218f8549bf4725cdbe420407ed3866097508cc8',
    'export-coords --lattice E8 --decimal 9':
        '4e27b648cff1a87cadd4ceb1eb202f3eda680036b46bde7fb9dad8c3bbf33681',
    'export-coords --lattice E6dual':
        'd38d3ba946867910c646640e1d70ad940908ef42d7a3f47178888098fbc4f408',
    'export-coords --lattice CT12 --decimal 6':
        '83f445dbc8a213dd4cfaaad08e7268f235642a9bd2d23401ba46d3b0f6781617',
}


# sha256 of the file `minvec --lattice NAME --out F` writes, taken from the
# program before vector files were written from int64 rows
VECTOR_FILES = {
    "BW16":
        "9716316f78d18f1b9f81b6df711d48145c65f75ca2fc5d68ed6e2d7834c8d44c",
    "E7dual":
        "ab3c8ce1eaa36a45bb24d5b0628470295a34fa52a23f84c0ad0f4c9c4873ef07",
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
