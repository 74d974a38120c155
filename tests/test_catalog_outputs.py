"""Every catalog command's stdout and exit code, checked by sha256.

``validate``, ``analyze``, ``wigner --faithful`` and ``--degenerate``,
``wigner --free "1/2 x0"`` on each entry with a free slot, ``covariant``
(with the entry's channels where it has them) and ``symmetries`` on each
named representation, the cube's with and without transport.  Between
them they write every claim kind the CLI emits.  The table
was written by the engine before it evaluated functionals as integer
matrices, the ``validate`` and ``--free`` rows by the engine before
claims were built in ``report``, so reports stay byte-identical on every
Python the suite runs on.  The ``covariant`` rows of ``boxworld``,
``qubit_xz`` and ``rebit_diamond`` were rewritten when reports came to
carry one covariance claim per generator of the translation group: each
output is the former one without its line for the composed element
``(A:(1, 0), B:(1, 0))``.  The ``analyze`` rows of ``boxworld``, ``cube``
and ``deformed_12gon`` were rewritten when the compatibility simplex came
to run over the free block: each output is the former one with the
lifted Farkas certificate of its ``compatibility`` claim, with the same
verdict.  Every row was rewritten for report format 2:
each output is the former one with ``"format": "wignerlab-report/2"``,
without the ``program`` of its LP claims, the ``matrix`` of its rank
claims and the ``basis`` of its covariance claims, and with the
constructor arguments that its LP claims name (``observable`` and
``outcome``, or ``perm_a`` and ``perm_b``).  The ``covariant
deformed_12gon`` row was rewritten when the leaving map's multipliers mu
came to be read off the row operations of the channel system's ``rref``:
mu is the combination of its pivot rows, (0, 2, -2, 0) where the former
greedy solve gave (-2, 0, -2, 0), with the same violated facet and gap.
A command added to the catalog needs its row.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wignerlab import catalog, cli
from wignerlab.wigner import free_slots

DIGESTS = {
    "analyze boxworld": "007a42d22f9748876f562a7efb28f87a0f145b4865fd8591f00e50ead5e18f61",
    "analyze cube": "4998aca21d4ae2aaddf218d0ba0d9f42bb2b18637017e22ab93d59cbba824df1",
    "analyze deformed_12gon": "fc34584abfab9431a0685b7c0091eb159a93d96d8fc3da900bf6871dd172d81e",
    "analyze qubit_ball": "9e22852c6a68b55062c0ac559a8262dbd8e23cafe1c3558872109d7bedfce656",
    "analyze qubit_xz": "db1ecdb0329494826903d55063ba07ff66edc3234cc2c4cc14cfcb6ba32abf1e",
    "analyze rebit_diamond": "92e449cad6ec98eba69f02d3925d05c7ec0a6649039b52b0d7e6e2d8cf1f3b7f",
    "analyze trit": "91c6a6eeb637e1ed8caa85c495424fc391593924a4dfa12f986899c305558428",
    "covariant boxworld": "9d31c5ebc13ecb5cb6386423a128faddc0d05f9e863f48e63adf35810afc6ce6",
    "covariant cube": "cf6fb04b373c6da4f605fff4bbb6b53a0c6e2c2c2622a499b105585d0cc3f642",
    "covariant deformed_12gon": "a93959dd98e76b94cf25de6adbc9feb76290dfed480053ef45ebb2ff736f2554",
    "covariant qubit_ball": "808c35c98ad704bdfb590cb73733263a0a7d429cd06bb9bcfd13ac189796ca04",
    "covariant qubit_xz": "88b2fbd330a8db3a9963a8c78a996ca5fddb302510546af2ed766719c3ac56ec",
    "covariant rebit_diamond": "6825aec3719c197f95605cda0ddb623578a12b95a8b2bfc4bab0621b320dbfc7",
    "covariant trit": "a26a05dfa29c28de94e50954cde82702384ccbde3ce493d9f0767a49df67600b",
    "symmetries boxworld W_+": "0e40f7f96cfc3d228d51d635f32aeb3603017f1990a1456315a961312a47a29d",
    "symmetries boxworld W_0": "d640623be3203fd058880b3c6a5d519bae329bc90e64ca7ff6d1bfaa567e6327",
    "symmetries boxworld W_1/2": "a7bf248ec6b1abcf5cd76c6ebf02c96326715fe18c6e6e6c05d7af4b47724396",
    "symmetries cube W_0 --no-transport": "15bc1ff4d259fee9d0d0fc0a985d0565528b0a45da16a7e19de73f6e43e88d50",
    "symmetries cube W_0": "ed6804e9436425e8df28f844bb95bbee1122de841201c79e6c359a97c2bb88a3",
    "symmetries cube W_z --no-transport": "439e1642bb2374b9fefc0763c59ebe1715583d98c6274c65b02f0ec0b18ea5ac",
    "symmetries cube W_z": "5022019169877f75f1c7106e37b87393d53bf2b50165cc929bdbc93ec0be22a1",
    "symmetries qubit_ball W": "aba62f87972f4432bb9221c557f984dcb4bd5fd2f512d7ae80275e6013228b3b",
    "symmetries qubit_xz W": "8ddd5af79d219109b4ce8bcb063e9f8cfdac837778eea04d2859e5a50378670e",
    "symmetries rebit_diamond W": "befd7176b1d45f1cc51c5ccbaa0e1af5456fc71990bbc9e5c9e1139d4ef380cb",
    "symmetries trit W": "36140b21f79d6fb505d772b469b6a39a473a3487ee9034d035a46ddfe359ea51",
    "validate boxworld": "0ac1743ab6f3fdc4785e9fefb281178995525b6449680808a1c4221a574fdf0e",
    "validate cube": "dc8417c6ab501e5af5d6f604689572a295c3a2463abea6eb0d298a5a5e469830",
    "validate deformed_12gon": "f7d68547e0c934d002d74a3703f165437e7aa3465b6097fe5f4aecc084454296",
    "validate qubit_ball": "1a18bd537321ed400c45e0fb80d04c52a37c89c1d906bf2a2ab7b00aee17ee19",
    "validate qubit_xz": "05d4cb564cf81ad6a23ab77968b014915cff74cb18a63c2385389395aae75d19",
    "validate rebit_diamond": "f8924d036520829449818d75df014c02622a10e5caa7993df10f3768cf9cf16e",
    "validate trit": "1e1cb75beb069aee6cdb0fea19c33036f543601926a390d6de673739d739b05f",
    "wigner boxworld --degenerate": "e6f431c097f72decd6c73df7010cc0a8f491af8dc80e1549e5dd6dee1a6b380c",
    "wigner boxworld --faithful": "07b10395879683f6dea37d154117a7429523a6325472ca1d7d4b82d710bc0553",
    "wigner boxworld --free 1/2 x0": "b36cc889be1974bee4ea95662c9848920d76955e3124dab532d8b76ef4ef80b1",
    "wigner cube --degenerate": "7e4d73bcf79c0142a4eb3b1d0af5f14d44f9c449ab9a1ed0e3e51f3814a0dbf0",
    "wigner cube --faithful": "82f7bde9a1b4f6d3258644b5108f502ae2daa152ffbad1c093c0394bf9ec693e",
    "wigner cube --free 1/2 x0": "2903f42cd1c66197df36b005517e71e48d1196a6b5c7e6267448f03539cfd975",
    "wigner deformed_12gon --degenerate": "a8c7f0297e1018dae0cd5706f707adda3433e0c0f147fa9d203a3e62360e81c4",
    "wigner deformed_12gon --faithful": "be4b31f8a6cabf57ebe6dd0a98a2959ad9c8373059781aa4c31b26187cc985f2",
    "wigner deformed_12gon --free 1/2 x0": "a6025ce01d49eb68108f6fba1a02c7a7bb0a7210ebf6d151e264245e9af6b0d1",
    "wigner qubit_ball --degenerate": "a842e1ba5e3fc550215b8112b50abcb76127bfb7a883e302273bd8bc5d3cc99a",
    "wigner qubit_ball --faithful": "c5e2b921d273b933b2a0de81ca112602f029508000cbae9adf38e24b434da9f8",
    "wigner qubit_ball --free 1/2 x0": "fd30f8ac34bc77b719f83bbe6cdd3f38a2b6ea6f1a5a0cfd8d1c286c00823b0e",
    "wigner qubit_xz --degenerate": "42bf82842d48570172c3e41ad932f881c6434dc721c41dd74ecb0aa21bffe5a4",
    "wigner qubit_xz --faithful": "78075509db93254ba4d3dbe078fe745d4ad5c5e8d308da4995e5c173bb012621",
    "wigner qubit_xz --free 1/2 x0": "902f9f4e7c09dd72d84c1de7323754a8bd58261cc331665e924b32a097f6c7bd",
    "wigner rebit_diamond --degenerate": "d1361b28e5e05d314a200af1b118fab00d263c093e159ad2a89ca62a7e9c40bd",
    "wigner rebit_diamond --faithful": "3740ca32a1dd468775a12f606bdb2c78bfaa911917e1866e086b85fc7d45b31e",
    "wigner rebit_diamond --free 1/2 x0": "9a48f1f6dc6bdc55400b842261d07c675d85127ad6f206e5840f74ee3ed63ec1",
    "wigner trit --degenerate": "24597049230bc6298d774a8dcf45cfbd2e94dc2a5e22567d72803136e28c0e29",
    "wigner trit --faithful": "eaea8d9f69e88a74664721f3d9cac8b6cb5952ba29ee52e90b864ea4bf201578",
}


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """Label -> argv of every catalog command, over exported theory files."""
    root = tmp_path_factory.mktemp("catalog")
    out = {}
    for name in catalog.CATALOG_NAMES:
        entry = catalog.load(name)
        path = str(root / f"{name}.json")
        export = ["example", name, "--out", path]
        channels = []
        if entry.channels:
            channels = ["--channels", str(root / f"{name}.channels.json")]
            export += ["--channels-out", channels[1]]
        assert _run(export)[0] == 0
        out[f"validate {name}"] = ["validate", path]
        out[f"analyze {name}"] = ["analyze", path]
        for flag in ("--faithful", "--degenerate"):
            out[f"wigner {name} {flag}"] = ["wigner", path, flag]
        if free_slots(entry.theory.obs_a, entry.theory.obs_b)[1]:
            out[f"wigner {name} --free 1/2 x0"] = ["wigner", path, "--free", "1/2 x0"]
        out[f"covariant {name}"] = ["covariant", path] + channels
        for rep in entry.representations:
            rep_path = str(root / f"{name}.{rep.replace('/', '_')}.json")
            assert _run(["example", name, "--rep", rep, "--out", rep_path])[0] == 0
            out[f"symmetries {name} {rep}"] = ["symmetries", rep_path]
            if name == "cube":
                out[f"symmetries {name} {rep} --no-transport"] = [
                    "symmetries", rep_path, "--no-transport"]
    return out


def test_every_catalog_command_has_a_digest(commands):
    assert sorted(commands) == sorted(DIGESTS)


@pytest.mark.parametrize("label", sorted(DIGESTS))
def test_catalog_command_output_is_unchanged(commands, label):
    code, out = _run(commands[label])
    assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == DIGESTS[label]
