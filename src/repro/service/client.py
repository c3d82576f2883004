"""A small blocking client for the model service (stdlib ``urllib``).

Used by the tests (which also drive an ``xpdl serve`` process with it);
applications embedding the service in-process should talk to
:class:`~repro.service.core.ModelHost` directly instead.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Mapping, Sequence

from ..diagnostics import XpdlError


class ServiceClientError(XpdlError):
    """A non-200 service response, carrying the decoded error body."""

    def __init__(self, status: int, body: Mapping[str, Any]) -> None:
        super().__init__(body.get("error", f"service returned {status}"))
        self.status = status
        self.body = dict(body)


class ServiceClient:
    """Thin JSON-over-HTTP client bound to one daemon."""

    def __init__(
        self, address: str = "127.0.0.1", port: int = 8790, timeout: float = 10.0
    ) -> None:
        self.base_url = f"http://{address}:{port}"
        self.timeout = timeout

    # -- transport -----------------------------------------------------------
    def _decode(self, status: int, data: bytes) -> dict[str, Any]:
        body = json.loads(data.decode("utf-8")) if data else {}
        if status != 200:
            raise ServiceClientError(status, body)
        return body

    def get(self, route: str, **params: str) -> dict[str, Any]:
        url = self.base_url + route
        if params:
            url += "?" + urllib.parse.urlencode(params)
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as resp:
                return self._decode(resp.status, resp.read())
        except urllib.error.HTTPError as exc:
            return self._decode(exc.code, exc.read())

    def post(self, route: str, payload: Mapping[str, Any]) -> dict[str, Any]:
        req = urllib.request.Request(
            self.base_url + route,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return self._decode(resp.status, resp.read())
        except urllib.error.HTTPError as exc:
            return self._decode(exc.code, exc.read())

    # -- ops -----------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self.get("/healthz")

    def query(self, model: str, path: str) -> dict[str, Any]:
        return self.post("/query", {"model": model, "path": path})

    def info(self, model: str) -> dict[str, Any]:
        return self.post("/info", {"model": model})

    def analysis(
        self, model: str, analyses: Sequence[str] | None = None
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {"model": model}
        if analyses is not None:
            payload["analyses"] = list(analyses)
        return self.post("/analysis", payload)

    def compose(self, model: str) -> dict[str, Any]:
        return self.post("/compose", {"model": model})

    def doctor(
        self,
        models: Sequence[str] | None = None,
        suppress: Sequence[str] = (),
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {}
        if models:
            payload["models"] = list(models)
        if suppress:
            payload["suppress"] = list(suppress)
        return self.post("/doctor", payload)

    def batch(self, requests: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
        return self.post("/batch", {"requests": list(requests)})

    def models(self) -> dict[str, Any]:
        return self.get("/models")

    def stats(self) -> dict[str, Any]:
        return self.get("/stats")
