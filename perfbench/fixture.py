"""The fixture model of the parse workloads: its location and digest check."""

import hashlib
import json
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
MODEL_PATH = DATA / "model.bin"
MODEL_JSON = DATA / "model.json"


class FixtureMismatch(Exception):
    """The model file is missing or differs from the one recorded."""


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def checked_model_path() -> Path:
    """Path of the fixture model after checking it against its record."""
    if not MODEL_PATH.is_file() or not MODEL_JSON.is_file():
        raise FixtureMismatch(f"fixture model missing under {DATA}")
    want = json.loads(MODEL_JSON.read_text())["sha256"]
    got = file_sha256(MODEL_PATH)
    if got != want:
        raise FixtureMismatch(f"{MODEL_PATH.name} sha256 {got} != recorded {want}")
    return MODEL_PATH
