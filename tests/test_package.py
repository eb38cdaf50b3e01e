import types

import chargraph


def test_all_names_every_public_name_of_the_package():
    public = [
        name
        for name, value in vars(chargraph).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert chargraph.__all__ == sorted(public)
