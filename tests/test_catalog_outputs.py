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
``(A:(1, 0), B:(1, 0))``.  A command added to the catalog needs its row.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wignerlab import catalog, cli
from wignerlab.wigner import free_slots

DIGESTS = {
    "analyze boxworld": "76699e782d1b918f6c4dd4ca400edc6c5183980bce7c28334c7e92dadbab8aef",
    "analyze cube": "03b2798c73e91b3fc95aeb63175049ebc162a154ff27302b5b9d9e9b6d3d5603",
    "analyze deformed_12gon": "94396e8aaf28468c91a9d6138de23ce0af4a3e868b3a977166688b1331f57b39",
    "analyze qubit_ball": "bbad6c42d13a099d666fa796910d97c70a39612941d07221cbc177a5e113156e",
    "analyze qubit_xz": "97f8bffb79b4b7474f4ce9493954d62613c79e8b32a57731859b71524a1735f6",
    "analyze rebit_diamond": "d467cefd4b985cf91cce74927f6ed08f97f702eb48e1f40146f75db2b765823e",
    "analyze trit": "4e8314d29b81fca11391313c7d29d81340b68e01224d416ea769cf6f1667c1a7",
    "covariant boxworld": "5d01e2fea0e06d324a8c48ee64204d5a063880517233ee3de7f3d2839046b38c",
    "covariant cube": "2c526434702a477db7371fdbfbab1750bd8883ed220a860dea0479c48d830ae1",
    "covariant deformed_12gon": "ee16767b5b3c3e346bc956354fb7b6c5fb0adf7f8412e143b092d1af19b8469e",
    "covariant qubit_ball": "0de8e13a76740f9cf408d66d91785b895674b52adaa4916e4c7f7f2fef6c6304",
    "covariant qubit_xz": "04e5d7d530c8aec01e8af6519d042acb5be40e04b2ce20b976791c83ee43c997",
    "covariant rebit_diamond": "ddb3746e9886f3de2de2700cca29e9194a07ff1cc2ca93368cfb0216391b5881",
    "covariant trit": "cc37528deafe624363384c244415f1183084d9dde4f4771ae7054ddf7f580737",
    "symmetries boxworld W_+": "cffde66419204ffd5679e99d40a9b0ea053dbc0065f8dd3e4b7871463656ac24",
    "symmetries boxworld W_0": "1702da0117d1dae2c83046bd6ba39b6f3811c83ec41d4abcd188abd81a530b83",
    "symmetries boxworld W_1/2": "0413627d96363505c306028410195fc3b43230890663924ec953098df39c4b0e",
    "symmetries cube W_0 --no-transport": "f615801e00aa58b46ee395c84d9435c5b449fe1713735eb6d9ba6e4de88263f4",
    "symmetries cube W_0": "fb26fe67f7ff47fcf5ff5e9ff427927cc75181e292612a7bb42ac69f2e8ed867",
    "symmetries cube W_z --no-transport": "3834db928e285c6894ac7d293ab42fdb1aff15d6153b4383c67a7e3dd93dbdec",
    "symmetries cube W_z": "80d32dd0f22a4ec4acec03709edd1faba2ed09f7e1af6cb1658fc5fd84aadfd2",
    "symmetries qubit_ball W": "541c3ea1154a85d4eda3588282cb1cf57eae48792ffa77a38c2d91f6b80282ec",
    "symmetries qubit_xz W": "c85d8e109ca2817eb345ef4bf1145fba65c3a585017248c4caea1ca693730161",
    "symmetries rebit_diamond W": "a18f893a9057e00ba2a78309f57f879e939ed244173af3fc853d1a997c158387",
    "symmetries trit W": "42c7f797f161051227a515b05333ab7a75e3ddf1667e65198d120edde90e35c9",
    "validate boxworld": "fa8a634dbbca7c15dc8f71f28d52de358ea2fa36ce36e74d4e60aae7c59202c5",
    "validate cube": "ed56d89793c3fe0d5f52a6595f48f6d82751629816b85dbb14e76686318e2eee",
    "validate deformed_12gon": "15d5a616a714289dd49bf72981cf0f80f22b6038b3bc82500983292871792a24",
    "validate qubit_ball": "49b124fb0e9d7718d8d51d7e95157314e589d6e3975797be06339106bfecbece",
    "validate qubit_xz": "6291ae4c2b7c4144a993823516ff1e50c61b9e83c1b8843b7661302954434ec8",
    "validate rebit_diamond": "9293d752cfecae32a32823fc02daeaa81824e2db2f499bc1de9804f4b1d27e4a",
    "validate trit": "28401297d367304ae009d6d6c6dd1edc8c9d5bee6328ecac2b5516e86ac6173a",
    "wigner boxworld --degenerate": "4128019716b7379222e1b81b0d4fdd96f692272c6d23af66b2d68426646ed3c9",
    "wigner boxworld --faithful": "c72ceee3f045d93556394914d5fbf8e89170f1dd799e848f56c456d8da0523af",
    "wigner boxworld --free 1/2 x0": "14a4052302c33dbc194b7d97e5866a26e52d5f2a79ee39ed1233c9e4f99e8d1e",
    "wigner cube --degenerate": "b430a2efe41de443567f25653eb5f8f1bb54ffe533cf5e9628399f86eb327047",
    "wigner cube --faithful": "5c33c85171728abfe09b40f2ac59e74f13822f8a3008d1bcce51008ce4c21308",
    "wigner cube --free 1/2 x0": "53154f6d44fb26d427590a8a2059c844c648e096273b9236ece024134a3a1aa0",
    "wigner deformed_12gon --degenerate": "fc94cfbc59ea298f8477f150676f810a113e144ea201a5612fe93a76536e8f5e",
    "wigner deformed_12gon --faithful": "13f87dc5f38be7bd44ed069e41f8c98e67b53d46440fcaedfcc79b6af611cd7b",
    "wigner deformed_12gon --free 1/2 x0": "37b25f447b0be4c30dc5326a6f465fa2ab1ac3d1455863c2f7f9a4b3c478fa94",
    "wigner qubit_ball --degenerate": "c0171f373b1f29d8375ec1b0d1a4579aab9ff001554a36f96c708251e02e7bc7",
    "wigner qubit_ball --faithful": "ef60b79fdcdb53a7cd15544991435feb6e87229623326769ce9edf0c181c0ec1",
    "wigner qubit_ball --free 1/2 x0": "479fb64727514bf9cb6f7aa4706df0ec15d7b921dd53c8c293cccb976163ff9d",
    "wigner qubit_xz --degenerate": "25eac503927f992e1cebc330a40ceb6990821437d24257d3bf7e993268e81c5c",
    "wigner qubit_xz --faithful": "98fcf351de66a11576fae22fc3ddeffe0c14e1d4b824f4936a3fedd4fd5817da",
    "wigner qubit_xz --free 1/2 x0": "b70bed3d457ae75b3a135aff5462379967f24c7140d3070e673c2316c3fae24b",
    "wigner rebit_diamond --degenerate": "2b0f5f6212cfb830465acfd9296cb91c653efb8725f31d427413299ce326154f",
    "wigner rebit_diamond --faithful": "ae5178f6d8574931ed42465cd28b0e0f3ff9e062b95bc2d5301baa56f0a0fef1",
    "wigner rebit_diamond --free 1/2 x0": "dc6725939488595bdd4eda9aa4e09ddcc98f6f5cb202795efc8f510dfb2c19aa",
    "wigner trit --degenerate": "d4aef6c4eb8d615a8806221f968e85c6fed75237ebb2ea34382e995a8c7633d5",
    "wigner trit --faithful": "117b104e739e83b8e3dd0454c8d429763ee00331c86a5f70ea027eefa37bba9c",
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
