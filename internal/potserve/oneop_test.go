package potserve

// Do sends one request and waits for its response, turning a failure
// status into its error as the client's single-request calls do. It is how
// the tests reach one get, delete, transaction or ping. The response's
// slices alias the client's scratch until its next call.
func (c *Client) Do(req Request) (Response, error) {
	err := c.roundTrip(req, &c.resp)
	return c.resp, err
}
